"""Time one cold set-up: import stspgl (numpy and scipy included), then
generate and validate an instance. Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py SRC N SEED N_REQUESTS N_SCENARIOS
"""

import sys
import time


def main(argv):
    src, n, seed, n_requests, n_scenarios = argv
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import stspgl.evalcli  # noqa: F401  the solver entry pulls in numpy and scipy
    from stspgl.model import validate_instance
    from stspgl.scenarios import generate_instance

    inst = generate_instance(n=int(n), seed=int(seed), n_requests=int(n_requests),
                             n_scenarios=int(n_scenarios), theta=0.8, rho=0.2)
    problems = validate_instance(inst)
    elapsed = time.perf_counter() - t0
    if problems:
        raise SystemExit(f"invalid instance: {problems}")
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1:])
