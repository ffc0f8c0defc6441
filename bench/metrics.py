"""For each per-layer metric of BENCHMARK.json, the end-to-end metrics and
workloads a change in it should move.

BENCHMARK.json holds the names, units, directions and bounds; this file holds
only the mapping.  Every metric here is printed by a traced run on every
workload.  A self time is listed only where the layer runs on all three
workloads; the traced run's full table (bench/out/layers-*.json) holds the
rest.
"""

C4, CLI, SN = "classify4", "cli-verify", "structured-n"

# per-layer metric -> [(end-to-end metric, workload), ...]
MOVES = {
    "kernel.eigh.scalar_calls": [("ops_per_s", C4), ("latency_p50_ms", C4), ("latency_p50_ms", CLI)],
    "kernel.eigh.batched_calls": [("ops_per_s", C4), ("latency_p50_ms", C4), ("latency_p50_ms", CLI)],
    "kernel.eigvalsh.scalar_calls": [("ops_per_s", C4), ("latency_p50_ms", C4), ("latency_p50_ms", CLI)],
    "kernel.eigvalsh.batched_calls": [("ops_per_s", C4), ("latency_p50_ms", C4), ("latency_p50_ms", CLI)],
    "kernel.eig.batched_matrices": [("ops_per_s", C4), ("latency_p50_ms", C4), ("latency_p50_ms", CLI)],
    "kernel.eig.self_s": [("ops_per_s", C4), ("latency_p50_ms", C4), ("latency_p50_ms", CLI)],
    "linalg.as_square_matrix.calls": [("ops_per_s", C4), ("latency_p50_ms", C4), ("latency_p50_ms", CLI)],
    "linalg.herm_part_at.calls": [("ops_per_s", C4), ("latency_p50_ms", C4), ("latency_p50_ms", CLI)],
    "linalg.self_s": [("ops_per_s", C4), ("latency_p50_ms", C4), ("latency_p50_ms", CLI)],
    "numrange.SupportFunction.builds": [("ops_per_s", C4), ("ops_per_s", CLI)],
    "numrange.SupportFunction.evals": [("ops_per_s", C4), ("ops_per_s", CLI)],
    "numrange.dichotomy_scan.calls": [("ops_per_s", C4), ("ops_per_s", CLI)],
    "numrange.top_gap_events.calls": [("ops_per_s", C4), ("ops_per_s", CLI)],
    "numrange.top_gap_events.self_s": [("ops_per_s", C4), ("ops_per_s", CLI)],
    "numrange.detect_seeds.calls": [("ops_per_s", C4), ("ops_per_s", CLI)],
    "numrange.kprime_relative.self_s": [("ops_per_s", C4), ("ops_per_s", CLI)],
    "numrange.point_boundary_defect.self_s": [("ops_per_s", C4), ("ops_per_s", CLI)],
    "numrange.self_s": [("ops_per_s", C4), ("ops_per_s", CLI)],
    "classify.k4_check.calls": [("latency_p90_ms", C4)],
    "classify.ka3_check.calls": [("latency_p90_ms", C4)],
    "classify.ka3_check.hit_ratio": [("latency_p90_ms", C4)],
    "classify.self_s": [("latency_p90_ms", C4)],
    "oracle.boundary_vector_field.calls": [("ops_per_s", CLI), ("latency_p90_ms", CLI), ("latency_p90_ms", C4)],
    "oracle.boundary_vector_field.self_s": [("ops_per_s", CLI), ("latency_p90_ms", CLI), ("latency_p90_ms", C4)],
    "oracle.max_orthonormal_boundary_set.calls": [("ops_per_s", CLI), ("latency_p90_ms", CLI), ("latency_p90_ms", C4)],
    "oracle.verify.searches_per_call": [("ops_per_s", CLI), ("latency_p90_ms", CLI)],
    "oracle.restricted_max_set.calls": [("ops_per_s", CLI), ("latency_p90_ms", CLI), ("latency_p90_ms", C4)],
    "oracle.self_s": [("ops_per_s", CLI), ("latency_p90_ms", CLI), ("latency_p90_ms", C4)],
    "reduction.commutant_nullspace.calls": [("ops_per_s", SN), ("latency_p90_ms", SN), ("peak_rss_mb", SN)],
    "reduction.commutant_nullspace.self_s": [("ops_per_s", SN), ("latency_p90_ms", SN), ("peak_rss_mb", SN)],
    "reduction.decompose.calls": [("ops_per_s", SN), ("latency_p90_ms", SN), ("peak_rss_mb", SN)],
    "reduction.decompose.self_s": [("ops_per_s", SN), ("latency_p90_ms", SN), ("peak_rss_mb", SN)],
    "reduction.dirsum_gauwu.self_s": [("ops_per_s", SN), ("latency_p90_ms", SN), ("peak_rss_mb", SN)],
    "reduction.self_s": [("ops_per_s", SN), ("latency_p90_ms", SN), ("peak_rss_mb", SN)],
    "kernel.svd.calls": [("ops_per_s", SN), ("latency_p90_ms", SN), ("peak_rss_mb", SN)],
    "kernel.svd.self_s": [("ops_per_s", SN), ("latency_p90_ms", SN), ("peak_rss_mb", SN)],
    "arrowhead.secular_eigen.calls": [("latency_p50_ms", SN)],
    "arrowhead.gauwu_unbalanced_two.calls": [("latency_p50_ms", SN)],
    "arrowhead.gauwu_with_zero_pairs.calls": [("latency_p50_ms", SN)],
    "arrowhead.dichotomy_check.calls": [("latency_p50_ms", SN)],
    "arrowhead.not_applicable_ratio": [("latency_p50_ms", SN)],
    "arrowhead.calls": [("latency_p50_ms", SN)],
    "matrixio.calls": [("latency_p50_ms", CLI)],
    "cli.calls": [("latency_p50_ms", CLI)],
    "generators.generate.self_s": [("setup_s", C4), ("setup_s", CLI), ("setup_s", SN)],
    "trace.overhead_frac": [],
}
