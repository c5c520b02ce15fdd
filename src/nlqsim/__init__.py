"""Simulator for oracle search and counting under nonlinear qubit dynamics."""

__version__ = "0.1.0"

from .statevector import (
    MeasurementRecord,
    StateVector,
    apply_1q_unitary,
    apply_2q_unitary,
    apply_hadamard_layer,
    collapse_onto_pattern,
    conditional_qubit_state,
    make_rng,
    measure_qubits,
    new_basis_state,
    probability_of_pattern,
)
from .oracle import (
    CnfFormula,
    DimacsError,
    OracleSpec,
    TruthTableOracle,
    apply_oracle,
    count_solutions_bruteforce,
    evaluate,
    load_truth_table,
    parse_dimacs,
    random_oracle,
)
from .weinberg import (
    HbarFunction,
    PhaseAlignedHbar,
    PhaseAlignmentError,
    PhaseTargetSolution,
    apply_conditional_nonlinear,
    apply_conditional_subspace_map,
    evolve_closed_form,
    evolve_integrated,
    find_phase_time,
    omega12,
    phase_aligned_hbar,
    trajectory,
)
from .gates import (
    BlochAngle,
    CompositeNGate,
    ExpandTableMap,
    FOLD_UNITARY,
    MergeTableMap,
    NonlinearMap,
    PAIR_CASE_INPUTS,
    PAIR_CASE_TARGETS,
    StretchMap,
    SynthesisError,
    bloch_distance,
    build_N,
    build_n_minus,
    build_n_plus,
    ideal_merge_gate,
    n_minus_single_pass,
    state_angle,
    state_bloch,
)
from .algorithms import (
    Alg1Config,
    Alg2Config,
    NoiseModel,
    RunReport,
    flag_theta,
    run_algorithm1,
    run_algorithm1_count,
    run_algorithm2,
    run_algorithm2_count,
)
