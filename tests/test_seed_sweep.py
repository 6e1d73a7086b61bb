"""tests/seed_sweep.py refuses a --reps below what its runs accept with a
usage error (exit 2), before running anything, and runs at the floor."""

import pytest

import seed_sweep


def usage_error(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        seed_sweep.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    return err


@pytest.mark.parametrize("digest", [[], ["--digest"]])
@pytest.mark.parametrize("reps", ["0", "200", "999", "-5"])
def test_sweeps_need_1000_reps(capsys, digest, reps):
    err = usage_error(capsys, [*digest, "--seeds", "0", "--reps", reps])
    assert f"--reps must be at least 1000 per sweep point, got {reps}" in err


@pytest.mark.parametrize("digest", [[], ["--digest"]])
@pytest.mark.parametrize("reps", ["0", "-1"])
def test_validation_needs_1_rep(capsys, digest, reps):
    err = usage_error(capsys, ["--validation", *digest, "--seeds", "0", "--reps", reps])
    assert f"--reps must be at least 1 with --validation, got {reps}" in err


@pytest.mark.parametrize("argv", [["--digest", "--seeds", "0", "--reps", "1000"],
                                  ["--validation", "--digest", "--seeds", "0", "--reps", "1"]])
def test_floors_run(capsys, argv):
    seed_sweep.main(argv)
    out, _ = capsys.readouterr()
    assert out.startswith("seed 0: ") and len(out.splitlines()) == 1
