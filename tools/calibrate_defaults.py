"""Offline calibration search producing the shipped default constants.

Run: python tools/calibrate_defaults.py [--rounds N]
"""
import argparse, time
from repro.machine import haswell_e3_1225
from repro.machine.energy import EnergyModel
from repro import Study
from repro.algorithms import BlockedGemm, StrassenWinograd, CapsStrassen
from repro.sim.calibration import PAPER_TARGETS, calibrate, score_study


def build_study(params):
    em = EnergyModel(
        package_static_w=params["static"],
        core_active_w=params["core"],
        j_per_flop=params["jflop"] * 1e-12,
        j_per_byte_l1=6e-12, j_per_byte_l2=12e-12, j_per_byte_l3=30e-12,
        uncore_j_per_dram_byte=params["uncore"] * 1e-9,
        dram_static_w=1.0, dram_j_per_byte=0.4e-9,
    )
    m = haswell_e3_1225(energy=em)
    algs = [
        BlockedGemm(m, min_tiles_per_thread=4),
        StrassenWinograd(m, leaf_efficiency=params["leaf_eff"],
                         add_locality=params["s_add_loc"],
                         leaf_locality=params["s_leaf_loc"]),
        CapsStrassen(m, leaf_efficiency=params["leaf_eff"],
                     add_locality=params["c_add_loc"],
                     leaf_locality=params["c_leaf_loc"]),
    ]
    return Study(m, algorithms=algs, sizes=(512, 1024, 2048),
                 execute_max_n=0, verify=False)


def objective(params):
    res = build_study(params).run().result
    return score_study(res, PAPER_TARGETS)


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()
    initial = dict(static=12.0, core=2.0, jflop=150.0, uncore=0.8,
                   leaf_eff=0.25, s_add_loc=0.85, s_leaf_loc=0.35,
                   c_add_loc=0.92, c_leaf_loc=0.45)
    steps = dict(static=1.5, core=0.5, jflop=20.0, uncore=0.2,
                 leaf_eff=0.03, s_add_loc=0.05, s_leaf_loc=0.08,
                 c_add_loc=0.03, c_leaf_loc=0.08)
    bounds = dict(static=(8, 16), core=(0.5, 4), jflop=(80, 250), uncore=(0.2, 2.0),
                  leaf_eff=(0.12, 0.5), s_add_loc=(0.5, 0.98), s_leaf_loc=(0.05, 0.9),
                  c_add_loc=(0.5, 0.99), c_leaf_loc=(0.05, 0.95))
    t0 = time.time()
    result = calibrate(objective, initial, steps, bounds, rounds=args.rounds)
    print("loss=%.4f evals=%d wall=%.0fs" % (result.loss, result.evaluations, time.time() - t0))
    for k, v in sorted(result.params.items()):
        print(f"  {k} = {v:.4g}")
