"""Head-direction ring attractor for angular-velocity path integration."""

from .neuron import NeuronParams, transfer, inverse_transfer, euler_step
from .kernel import (TuningCurve, WeightKernel, target_profile,
                     synthesize_recurrent, derivative_kernel, build_kernel,
                     save_kernel, load_kernel, kernel_hash)
from .network import (NetworkState, TurningStimulus, HDCNetwork, decode,
                      DegenerateActivityError)
from .calibration import (StimulusGain, SweepSample, sweep, fit_gain,
                          save_calibration, load_calibration,
                          CalibrationMismatchError, GainFitError)
from .tracker import (SampleResult, TimingStats, TrackingReport, track,
                      baseline_integrate, wrapped_error, benchmark)
from .io import (Trajectory, TrajectoryRecord, OxtsLayout, SyntheticProfile,
                 read_csv, write_csv, read_oxts, generate, TrajectoryFormatError)

__version__ = "0.1.0"
