"""The exponentially scaled Bessel helpers of the disk model, pinned against
mpmath and against a hand-rolled series."""
import numpy as np
import pytest
from mpmath import mp
from scipy.special import ive, kve

from btriple.model_disk import _neighbour_orders, bessel_i, bessel_j, bessel_k

from .oracles import (
    I0_AT_1,
    I1_AT_1,
    J0_ZERO1_SQ,
    K0_AT_1,
    K1_AT_1,
    iv_series_partial,
    mp_iv,
    mp_iv_prime,
    mp_kv,
    mp_kv_prime,
)


def unscaled_i(k, z):
    """(I_k(z), I_k'(z)): bessel_i with its factor e^{-|Re z|} removed."""
    v, d = bessel_i(k, z)
    f = np.exp(abs(complex(z).real))
    return v * f, d * f


def unscaled_k(k, z):
    """(K_k(z), K_k'(z)): bessel_k with its factor e^{z} removed."""
    v, d = bessel_k(k, z)
    f = np.exp(-complex(z))
    return v * f, d * f


class TestFrozenValues:
    def test_i0_i1_at_one(self):
        v0, d0 = unscaled_i(0, 1.0)
        assert abs(v0 - I0_AT_1) < 1e-12
        assert abs(d0 - I1_AT_1) < 1e-12  # I_0' = I_1

    def test_k0_k1_at_one(self):
        v0, d0 = unscaled_k(0, 1.0)
        assert abs(v0 - K0_AT_1) < 1e-12
        assert abs(d0 + K1_AT_1) < 1e-12  # K_0' = -K_1

    def test_small_order_small_z_limits(self):
        v0, _ = unscaled_i(0, 1e-8)
        assert abs(v0 - 1.0) < 1e-15
        v3, _ = unscaled_i(3, 1e-4)
        # leading term (z/2)^3 / 3!
        assert v3 == pytest.approx((5e-5) ** 3 / 6.0, rel=1e-10)

    def test_against_truncated_series(self):
        for k in (0, 1, 4):
            for z in (0.3, 1.7 + 0.4j, 2.0 - 1.0j):
                got, _ = unscaled_i(k, z)
                want = iv_series_partial(k, z, terms=30)
                assert abs(got - want) < 1e-13 * max(1.0, abs(want))


class TestAgainstMpmath:
    @pytest.mark.parametrize("z", [
        0.5,
        1.9 + 0.3j,
        7.0,
        12.0 - 5.0j,
        25.0 + 9.0j,
        80.0,
        300.0 + 40.0j,
        650.0,
    ])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 11])
    def test_i_and_k_with_derivatives(self, k, z):
        vi, dvi = bessel_i(k, z)
        vk, dvk = bessel_k(k, z)
        zm = mp.mpc(z)
        si = mp.exp(-abs(zm.real))
        sk = mp.exp(zm)
        wi = complex(si * mp_iv(k, zm))
        wdi = complex(si * mp_iv_prime(k, zm))
        wk = complex(sk * mp_kv(k, zm))
        wdk = complex(sk * mp_kv_prime(k, zm))
        assert abs(vi - wi) < 1e-10 * abs(wi)
        assert abs(dvi - wdi) < 1e-10 * abs(wdi)
        assert abs(vk - wk) < 1e-9 * abs(wk)
        assert abs(dvk - wdk) < 1e-9 * abs(wdk)

    def test_i_large_order_series_region(self):
        # a large order at large complex z
        k = 16
        z = 200.0 + 10.0j
        vi, _ = bessel_i(k, z)
        wi = complex(mp.exp(-200) * mp_iv(k, z))
        assert abs(vi - wi) < 1e-10 * abs(wi)


class TestWronskian:
    def test_random_orders_and_arguments(self):
        # I_k(z) K_k'(z) - I_k'(z) K_k(z) = -1/z
        rng = np.random.default_rng(77)
        for _ in range(50):
            k = int(rng.integers(0, 17))
            z = complex(rng.uniform(0.3, 20.0), rng.uniform(-10.0, 10.0))
            vi, dvi = unscaled_i(k, z)
            vk, dvk = unscaled_k(k, z)
            w = vi * dvk - dvi * vk
            assert abs(w + 1.0 / z) < 1e-10 * abs(1.0 / z), f"k={k}, z={z}"


class TestDistinctOrders:
    """bessel_i/bessel_k evaluate each distinct order once; the values must
    be the ones of ive/kve on the full (|k - 1|, k, k + 1) stack."""

    @staticmethod
    def three_stacks(fn, sign, k, z):
        lo, mid, hi = fn(*_neighbour_orders(k, z))
        return mid, sign * 0.5 * (lo + hi)

    @pytest.mark.parametrize("r_cut", [1.0, 16.0])
    def test_mode_stack_matches_three_stacks(self, r_cut):
        # the closed-form disk Weyl values: modes 0..4 against s = sqrt(-lam)
        # on a contour level (r_cut = 1) and at the exterior cut (s r_cut)
        theta = np.pi * (1 + 2 * np.arange(656)) / 2624
        lams = 20.3 + 28.3 * np.cos(theta) + 14.1j * np.sin(theta)
        z = np.sqrt(0j - lams) * r_cut
        k = np.arange(5)[:, None]
        got = bessel_i(k, z)
        want = self.three_stacks(ive, 1.0, k, z)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        got = bessel_k(k, z)
        want = self.three_stacks(kve, -1.0, k, z)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("k, z", [
        (0, 1.5 + 0.5j),
        (3, 2.0),
        (np.array([0, 1, 4]), np.array([0.3, 1.0 + 2.0j, 7.0])),
        (np.arange(3)[:, None, None], np.full((2, 4), 1.0 + 1.0j)),
    ])
    def test_broadcast_shapes_match_three_stacks(self, k, z):
        for fn, scaled, sign in ((bessel_i, ive, 1.0), (bessel_k, kve, -1.0)):
            got = fn(k, z)
            want = self.three_stacks(scaled, sign, k, z)
            assert all(np.shape(g) == np.shape(w) and np.array_equal(g, w)
                       for g, w in zip(got, want))


class TestDomainGuards:
    def test_k_needs_right_half_plane(self):
        # the closed half-plane but its origin: kve is finite on the
        # imaginary axis, where K_k is a Hankel function
        with pytest.raises(ValueError):
            bessel_k(0, -1.0)
        with pytest.raises(ValueError):
            bessel_k(2, 0.0)
        vk, dvk = bessel_k(2, 0.0 + 3.0j)
        want = complex(mp.exp(mp.mpc(0, 3)) * mp_kv(2, mp.mpc(0, 3)))
        assert abs(vk - want) < 1e-12 * abs(want) and np.isfinite(dvk)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            bessel_i(-1, 1.0)
        with pytest.raises(ValueError):
            bessel_k(-2, 1.0)

    def test_nonfinite_argument(self):
        with pytest.raises(ValueError):
            bessel_i(0, complex(np.nan, 0.0))


class TestBesselJ:
    def test_against_mpmath(self):
        for k in (0, 1, 3, 6):
            for x in (0.5, 2.7, 5.3, 9.8):
                v, d = bessel_j(k, x)
                assert abs(v - float(mp.besselj(k, x))) < 1e-11
                if k == 0:
                    wd = -float(mp.besselj(1, x))
                else:
                    wd = 0.5 * float(mp.besselj(k - 1, x) - mp.besselj(k + 1, x))
                assert abs(d - wd) < 1e-11

    def test_first_zero_of_j0(self):
        v, _ = bessel_j(0, np.sqrt(J0_ZERO1_SQ))
        assert abs(v) < 1e-12

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)
