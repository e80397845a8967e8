"""Tests for the per-step theory diagnostics and the trajectory CSV they
are written to."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reweight import cli
from reweight.core import ReweightConfig
from reweight.diagnostics import (
    delta_t,
    grad_gap_term,
    mu_t,
    theorem1_bound,
)
from reweight.optim import COLUMNS, StepSizeRule, run_training
from reweight.problems import (
    QuadraticProblem,
    RegressionProblem,
    gen_quadratic_suite,
    gen_regression,
)
from test_optim import _BlowUpProblem


def random_simplex(rng, b):
    w = rng.uniform(0.0, 1.0, size=b)
    return w / w.sum()


class TestDeltaT:
    def test_uniform_weights_zero(self):
        gaps_now = np.array([1.0, 3.0, 7.0])
        assert delta_t(gaps_now, np.zeros(3), np.full(3, 1 / 3)) == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        # (0.5-0.25)*0 + (0.5-0.75)*2 = -0.5
        assert delta_t([0.0, 2.0], [0.0, 0.0], [0.25, 0.75]) == pytest.approx(-0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            delta_t([1.0, 2.0], [0.0, 0.0], [1.0])

    def test_comonotone_nonpositive(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            b = int(rng.integers(2, 33))
            gaps = np.sort(rng.uniform(0.0, 5.0, size=b))
            w = np.sort(random_simplex(rng, b))
            assert delta_t(gaps, np.zeros(b), w) <= 1e-12

    @given(
        perm_seed=st.integers(min_value=0, max_value=10**6),
        data_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_joint_permutation_invariance(self, perm_seed, data_seed):
        rng = np.random.default_rng(data_seed)
        b = 12
        gaps = rng.uniform(0.0, 5.0, size=b)
        w = random_simplex(rng, b)
        perm = np.random.default_rng(perm_seed).permutation(b)
        assert delta_t(gaps, np.zeros(b), w) == pytest.approx(
            delta_t(gaps[perm], np.zeros(b), w[perm])
        )


class TestMuT:
    def test_uniform_weights_zero(self):
        assert mu_t([1.0, 2.0], [5.0, 0.0], [0.5, 0.5]) == pytest.approx(0.0)

    def test_unchanged_losses_zero(self):
        f = [1.0, 2.0, 3.0]
        assert mu_t(f, f, [0.6, 0.3, 0.1]) == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        # diffs [1, -1], w [0.75, 0.25]: (0.5-0.75)*1 + (0.5-0.25)*(-1) = -0.5
        assert mu_t([2.0, 0.0], [1.0, 1.0], [0.75, 0.25]) == pytest.approx(-0.5)


class TestGradGapTerm:
    def test_uniform_weights_zero(self):
        assert grad_gap_term([4.0, 9.0], [0.5, 0.5]) == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        # (0.5-0.25)*4 + (0.5-0.75)*0 = 1.0
        assert grad_gap_term([4.0, 0.0], [0.25, 0.75]) == pytest.approx(1.0)

    def test_comonotone_nonpositive(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            b = int(rng.integers(2, 17))
            sq = np.sort(rng.uniform(0.0, 9.0, size=b))
            w = np.sort(random_simplex(rng, b))
            assert grad_gap_term(sq, w) <= 1e-12

    def test_negative_norms_rejected(self):
        with pytest.raises(ValueError):
            grad_gap_term([-1.0, 1.0], [0.5, 0.5])


class TestTheorem1Bound:
    def test_zero_deltas_classic_bound(self):
        assert theorem1_bound(2.0, 1.0, 4, np.zeros(4)) == pytest.approx(4.0)

    def test_hand_arithmetic(self):
        # 8*1*4/8 + (-0.1) = 3.9
        assert theorem1_bound(1.0, 4.0, 8, np.full(8, -0.1)) == pytest.approx(3.9)

    def test_negative_deltas_tighten(self):
        base = theorem1_bound(1.0, 1.0, 10, np.zeros(10))
        tightened = theorem1_bound(1.0, 1.0, 10, np.full(10, -0.2))
        assert tightened < base

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            theorem1_bound(1.0, 1.0, 5, np.zeros(4))


def write_rows(path, columns, header=COLUMNS):
    """Write columns with the CLI's CSV writer and return the rows as
    lists of fields, checking the CRLF line ends."""
    cli._write_csv(path, header, columns)
    text = path.read_bytes().decode()
    assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", "")
    rows = [line.split(",") for line in text.split("\r\n")[:-1]]
    assert rows[0] == list(header)
    return rows[1:]


def field(rows, name):
    """One column of written rows."""
    return [row[COLUMNS.index(name)] for row in rows]


class TestTrajectoryCsv:
    """The CLI's one column-wise CSV writer, on trajectories. A field is
    empty only where a column is absent or has not started (mu_t at step
    0); a nan value is written as nan."""

    def test_absent_column_writes_empty(self, tmp_path):
        quadratic = QuadraticProblem(gen_quadratic_suite(M=16, d=3, seed=0))
        traj = run_training(quadratic, ReweightConfig(mode="uniform"), StepSizeRule(eta=0.01),
                            batch_size=4, steps=5)
        rows = write_rows(tmp_path / "q.csv", traj.columns)
        assert len(rows) == 5 and "test_loss" not in traj.columns
        assert field(rows, "test_loss") == [""] * 5
        assert "" not in field(rows, "theta_dist_sq") + field(rows, "delta_t")

        regression = RegressionProblem(gen_regression(p=3, n=16, m=4, n_test=4))
        traj = run_training(regression, ReweightConfig(), StepSizeRule(eta=0.01),
                            batch_size=4, steps=5)
        rows = write_rows(tmp_path / "r.csv", traj.columns)
        assert field(rows, "theta_dist_sq") == [""] * 5
        assert "" not in field(rows, "test_loss") + field(rows, "delta_t")

    def test_mu_t_empty_at_step_zero(self, tmp_path):
        quadratic = QuadraticProblem(gen_quadratic_suite(M=16, d=3, seed=0))
        traj = run_training(quadratic, ReweightConfig(), StepSizeRule(eta=0.01),
                            batch_size=4, steps=4)
        mu = field(write_rows(tmp_path / "q.csv", traj.columns), "mu_t")
        assert mu[0] == "" and mu[1:] == [repr(v) for v in traj.columns["mu_t"].tolist()]

    def test_nan_writes_nan(self, tmp_path):
        # The update overflows at the fourth step; the gradient-norm gap of
        # the steps after the first is inf - inf.
        traj = run_training(_BlowUpProblem(), ReweightConfig(), StepSizeRule(eta=1.0),
                            batch_size=4, steps=50, seed=9)
        rows = write_rows(tmp_path / "b.csv", traj.columns)
        assert field(rows, "step") == ["0", "1", "2", "3"]
        assert field(rows, "grad_gap")[1:] == ["nan"] * 3
        assert field(rows, "delta_t") == [""] * 4  # no optimal losses

    @pytest.mark.parametrize("payload, want", [
        ({"r_initial": 100, "r_final": 1}, ["100", "100", "100"]),
        ({"r_initial": 100, "warmup_steps": 1}, ["100", "1.0", "1.0"]),
    ])
    def test_temperature_keeps_the_config_type(self, tmp_path, payload, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(payload, p=3, n=16, m=4, n_test=4, batch_size=4,
                                       steps=3)))
        out = tmp_path / "t.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert field(rows, "r") == want

    def test_short_columns_fill_the_last_rows(self, tmp_path, monkeypatch):
        # Converted in blocks of two rows, a block boundary falls inside the
        # empty rows of b and inside its values.
        monkeypatch.setattr(cli, "_CSV_BLOCK", 2)
        columns = {"a": np.arange(5), "b": np.array([1.5, np.nan])}
        rows = write_rows(tmp_path / "x.csv", columns, header=("a", "b", "c"))
        assert rows == [["0", "", ""], ["1", "", ""], ["2", "", ""], ["3", "1.5", ""],
                        ["4", "nan", ""]]
