"""Experiment harness: test cases, campaigns, result aggregation, tables."""

from repro.experiments.campaign import (
    E1_VERSIONS,
    CampaignConfig,
    run_e1_campaign,
    run_e2_campaign,
    run_reference_grid,
)
from repro.experiments.analysis import (
    cross_detection_matrix,
    detection_by_bit,
    detection_threshold_bit,
    failure_rate_by_signal,
)
from repro.experiments.parallel import (
    CampaignExecutionError,
    RunSpec,
    enumerate_e1_specs,
    enumerate_e2_specs,
    execute_specs,
)
from repro.experiments.persistence import (
    load_results,
    results_from_csv,
    results_to_csv,
    save_results,
)
from repro.experiments.plots import (
    svg_bit_detection_chart,
    svg_line_chart,
    write_svg,
)
from repro.experiments.propagation import (
    PropagationOutcome,
    PropagationStudy,
    compute_pem,
    measure_propagation,
    run_propagation_study,
)
from repro.experiments.results import (
    CoverageTriple,
    ResultSet,
    RunRecord,
    canonical_key,
    flatten_record,
)
from repro.experiments.tables import (
    render_table6,
    render_table7,
    render_table8,
    render_table9,
)
from repro.experiments.testcases import (
    MASS_RANGE_KG,
    VELOCITY_RANGE_MPS,
    make_test_cases,
    select_spread,
)

__all__ = [
    "E1_VERSIONS",
    "CampaignConfig",
    "run_e1_campaign",
    "run_e2_campaign",
    "run_reference_grid",
    "CoverageTriple",
    "ResultSet",
    "RunRecord",
    "canonical_key",
    "flatten_record",
    "CampaignExecutionError",
    "RunSpec",
    "enumerate_e1_specs",
    "enumerate_e2_specs",
    "execute_specs",
    "render_table6",
    "render_table7",
    "render_table8",
    "render_table9",
    "cross_detection_matrix",
    "detection_by_bit",
    "detection_threshold_bit",
    "failure_rate_by_signal",
    "load_results",
    "results_from_csv",
    "results_to_csv",
    "save_results",
    "svg_bit_detection_chart",
    "svg_line_chart",
    "write_svg",
    "PropagationOutcome",
    "PropagationStudy",
    "compute_pem",
    "measure_propagation",
    "run_propagation_study",
    "make_test_cases",
    "select_spread",
    "MASS_RANGE_KG",
    "VELOCITY_RANGE_MPS",
]
