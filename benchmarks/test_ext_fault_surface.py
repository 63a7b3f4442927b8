"""Extension E4 — fault-surface breakdown of the Table 1 campaign.

Cross-tabulates injection outcomes by the corrupted instruction field,
explaining Table 1's shape mechanistically: opcode flips trend toward
hangs (invalid encodings trap), don't-care pad flips are architecturally
invisible, immediate flips split between corruption (addresses, lengths)
and benign perturbations (unverified checksum seeds, diagnostics).
"""

from conftest import env_int

from repro.exp.registry import get_experiment
from repro.exp.runner import run_experiment
from repro.faults import Category
from repro.faults.surface import FieldKind


def test_ext_fault_surface(benchmark, report):
    runs = env_int("REPRO_T1_RUNS", 150)

    def campaign_and_analyze():
        experiment = get_experiment("surface")
        spec = experiment.build_spec(
            {"runs": runs, "seed": 6007, "messages": 10})
        return experiment.aggregate(spec, run_experiment(spec).outcomes)

    campaign, surface = benchmark.pedantic(campaign_and_analyze,
                                           rounds=1, iterations=1)
    report("ext_fault_surface", surface.render())

    assert surface.total == runs
    # Pad bits (R-format don't-cares) are always harmless.
    if surface.field_total(FieldKind.PAD):
        assert surface.rate(FieldKind.PAD, Category.NO_IMPACT) == 1.0
    # Opcode and immediate corruption both produce real failure mass:
    # opcodes via invalid encodings, immediates via corrupted
    # addresses/offsets (bus errors, escaped branches).  Neither field
    # is anywhere near fully benign.
    assert surface.rate(FieldKind.OPCODE, Category.NO_IMPACT) < 0.9
    assert surface.rate(FieldKind.IMMEDIATE, Category.NO_IMPACT) < 0.9
    assert surface.rate(FieldKind.OPCODE, Category.LOCAL_HANG) > 0
    assert surface.rate(FieldKind.IMMEDIATE, Category.LOCAL_HANG) > 0
    # Every flip position was attributable.
    assert sum(surface.field_total(f) for f in FieldKind.ORDER) == runs
