import numpy as np
import pytest

from shipnet import gradcheck as G
from shipnet import tensor as T


def _relu_case(x0):
    x = T.Tensor([x0, 0.7], dtype=np.float64, requires_grad=True)
    return lambda t: t.relu().sum(), [x]


def _wrong_vjp(t):
    # 2t with a vjp 0.1% off: a smooth function, so its failure is settled
    return T.custom_op(2 * t.data, (t,), lambda g: (2.002 * g,)).sum()


class TestRedraw:
    def test_kink_within_the_step_is_drawn_again(self):
        # 3e-6 lies within the step of relu's kink at 0; 0.4 is clear of it
        draws = iter([3e-6, 0.4])

        def check(rng):
            yield _relu_case(next(draws))

        assert not G.grad_check(*_relu_case(3e-6), G.EPS) < G.GENERAL_TOL
        assert G.check_error(check, None, G.GENERAL_TOL) < G.GENERAL_TOL
        assert next(draws, None) is None

    def test_wrong_vjp_still_fails(self):
        drawn = []

        def check(rng):
            x = T.Tensor(rng.standard_normal(3), dtype=np.float64, requires_grad=True)
            drawn.append(x)
            yield _wrong_vjp, [x]

        err = G.check_error(check, np.random.default_rng(0), G.GENERAL_TOL)
        assert err == pytest.approx(0.002 / 4.002)
        assert len(drawn) == 1  # a smooth function's failure is not drawn again

    def test_failing_draw_sweeps_each_step_once(self):
        # the redraw rule reuses the loss and the EPS sweep behind the error
        # and adds only the EPS/2 sweep: one loss, then 2 x 3 calls per step
        calls = []

        def f(t):
            calls.append(t.data.copy())
            return _wrong_vjp(t)

        def check(rng):
            yield f, [T.Tensor(rng.standard_normal(3), dtype=np.float64, requires_grad=True)]

        assert not G.check_error(check, np.random.default_rng(0), G.GENERAL_TOL) < G.GENERAL_TOL
        assert len(calls) == 1 + 2 * 3 + 2 * 3
        steps = [np.max(np.abs(x - calls[0])) for x in calls[1:]]
        assert steps == pytest.approx([G.EPS] * 6 + [G.EPS / 2] * 6)


@pytest.mark.parametrize("seed", [17, 55, 1231])
def test_sweep_passes_at_seeds_whose_first_draws_fail(seed):
    # each of these seeds first draws a kink or a near-zero gradient in
    # spatial-attention, cbam-block or bottleneck
    assert [kind for kind, _, _, ok in G.run_sweep(seed) if not ok] == []
