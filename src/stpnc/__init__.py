"""Simulator for two-phase relayed information exchange in fully-connected networks.

The library covers: seeded channel generation, transmission schedules,
relay precoder synthesis (interference neutralization and alignment),
end-to-end protocol execution with exact noiseless decoding, closed-form
sum-DoF calculators, and finite-SNR ergodic-rate Monte Carlo.
"""

from .channel import ChannelSet, NetworkConfig, derive_trial_seed, draw_channels
from .dof import (
    DoFResult,
    gof_dof,
    k_stars,
    single_antenna_sweep,
    single_relay_dof,
    sum_dof,
    write_sweep_csv,
)
from .linalg import (
    DEFAULT_TOL,
    InconsistentSystem,
    RankDeficient,
    Tolerance,
    kron,
    null_space,
    rank,
    solve_least_norm,
    unvec,
    vec,
    zf_solve,
)
from .precoder import (
    AntennaDeficit,
    PrecoderSet,
    SynthesisFailed,
    design,
    design_case1,
    design_case2,
    design_twic,
    design_twxc,
    verify_constraints,
)
from .protocol import (
    EquationLedger,
    SimReport,
    alignment_error,
    decode_user,
    draw_symbols,
    ledger_linearity_error,
    relay_process,
    run_end_to_end,
    run_phase1,
    run_phase2,
    verify_scenario,
)
from .rate import (
    RateConfig,
    RatePoint,
    RateResult,
    df_pair_rate,
    downlink_rate,
    snr_sweep,
    stpnc_sum_rate,
    tdma_sum_rate,
    uplink_rate,
)
from .scheduler import (
    InvalidUserCount,
    Schedule,
    SlotPlan,
    SymbolId,
    cyclic_user,
    schedule_case1,
    schedule_case2,
    schedule_twic,
    schedule_twxc,
)

__version__ = "0.1.0"
