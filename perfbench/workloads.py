"""Workload definitions shared by the orchestrator, the worker and the
reference generator.

Two scales exist: ``full`` is what the benchmark measures, ``smoke`` is a
toy size that runs every workload in seconds to check the plumbing.  Both
scales use the same Monte-Carlo cells and the same bootstrap truth, so the
statistical references in ``reference.json`` serve both.
"""

WORKLOADS = ("study-test", "mc-grid", "bootstrap-fdr")

# Threads for mc-grid: equal to nproc on the 2-core reference box and to the
# acceptance suite's THREADS there.
MC_THREADS = 2

# name -> SimConfig keyword arguments (r_hat = 1 throughout).
MC_CELLS = {
    "noise-n50-m1000": dict(n=50, m=1000, r=0),
    "noise-n100-m10000": dict(n=100, m=10000, r=0),
    "noise-n5-m10": dict(n=5, m=10, r=0),
    "basis-n100-m500": dict(n=100, m=500, r=1, mu=(3.0,), shape="basis"),
    "basis-n100-m50": dict(n=100, m=50, r=1, mu=(3.0,), shape="basis"),
}

# Replicates per cell and pass.  The full scale gives each cell roughly a
# second of work or more at threads=2, except the overhead-bound n5-m10 cell;
# run_sim needs at least 100.
MC_REPLICATES = {
    "full": {"noise-n50-m1000": 200, "noise-n100-m10000": 100,
             "noise-n5-m10": 2000, "basis-n100-m500": 200,
             "basis-n100-m50": 500},
    "smoke": {name: 100 for name in MC_CELLS},
}

# Reference runs: many more replicates than one pass, under a seed no
# benchmark run uses.
MC_REFERENCE_REPLICATES = {"noise-n50-m1000": 4000, "noise-n100-m10000": 2000,
                           "noise-n5-m10": 20000, "basis-n100-m500": 4000,
                           "basis-n100-m50": 5000}
REFERENCE_SEED = 987_654_321

# The bootstrap truth is built from one fixed study (the acceptance suite's
# criterion-7 study); --seed drives the bootstrap draws.
STUDY_M = {"full": 17862, "smoke": 300}
BOOT_STUDY_M = 2000
BOOT_STUDY_SEED = 20240809
BOOT_COEF_INDEX = 2
BOOT_METHODS = ("proposed", "gollob", "mandel", "naive")
BOOT_DATASETS = {"full": 20, "smoke": 10}
BOOT_MANDEL_REPS = 1000
BOOT_REFERENCE_DATASETS = 1000

# A statistical check passes when the estimate lies within this many
# combined standard errors (run and reference) of the reference value.
CHECK_SIGMAS = 5.0

# study-test: the analyst's command at the paper's study size.
TEST_COEF_INDEX, TEST_R_HAT = 2, 2
TEST_ARGS = ["--coef-index", str(TEST_COEF_INDEX), "--r-hat", str(TEST_R_HAT),
             "--method", "proposed", "--format", "csv"]
TEST_SAMPLE = 64          # responses checked against the dense reference
TEST_RTOL = 1e-8

# Set-up repeats per run; setup_s is their median.  study-test generates a
# 17,862-response fixture (about 15 s and 5 GB), so it sets up once.
SETUP_REPEATS = {"study-test": 1, "mc-grid": 5, "bootstrap-fdr": 5}


def run_seed(seed: int, round_index: int) -> int:
    """Seed for one round: distinct per round, fixed by the run seed."""
    return seed * 1000 + round_index
