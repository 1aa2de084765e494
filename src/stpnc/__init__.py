"""Simulator for two-phase relayed information exchange in fully-connected networks.

The library covers: seeded channel generation, transmission schedules,
relay precoder synthesis (interference neutralization and alignment),
end-to-end protocol execution with exact noiseless decoding, closed-form
sum-DoF calculators, and finite-SNR ergodic-rate Monte Carlo.
"""

__version__ = "0.1.0"
