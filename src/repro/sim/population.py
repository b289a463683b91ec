"""Heterogeneous device population — the substitute for ~100 M phones.

Section 2 of the paper reports the heterogeneity this module reproduces:

* compute capability of mobile devices differs by an order of magnitude
  (Wu et al., 2019) and per-client training time spans **more than two
  orders of magnitude** (Figure 2) — we model per-example training cost
  as log-normal;
* example counts vary widely across users (Caldas et al., 2018) — also
  log-normal, heavy tailed;
* crucially for the fairness result (Figure 11), **slow devices tend to
  hold more data** ("We observe very high correlation between slow
  devices and devices with many training samples", Section 1).  The two
  log-normals share a latent factor with configurable correlation, and
  execution time additionally scales with the number of local examples —
  both mechanisms the paper describes;
* ~10 % of clients drop out mid-participation (Figure 1 caption: "We see
  up to 10 % of clients drop").

Profiles are derived deterministically from ``(seed, device_id)``, so a
population of millions costs nothing until a device is actually touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import child_rng

__all__ = [
    "PopulationConfig",
    "DeviceProfile",
    "DevicePopulation",
    "ColumnarDevicePopulation",
]


@dataclass(frozen=True)
class PopulationConfig:
    """Distributional parameters of the simulated fleet.

    Attributes
    ----------
    n_devices:
        Population size (ids are ``0..n_devices-1``).
    mean_examples:
        Median of the per-client example-count log-normal.
    sigma_examples:
        Log-space spread of example counts.
    median_sec_per_example:
        Median per-example local training cost in seconds.
    sigma_speed:
        Log-space spread of per-example cost.  Together with
        ``sigma_examples`` and the correlation, the default gives a total
        log-spread of ≈1.13, which reproduces the paper's ~21× mean-round-
        duration-to-mean-client-time ratio at cohort size 1000 and a >2
        order-of-magnitude execution-time spread (Figure 2).
    speed_data_correlation:
        Correlation between the latent speed and data-volume factors
        (positive = slow devices hold more data).
    overhead_s:
        Fixed per-participation cost (model load, setup) in seconds.
    dropout_rate:
        Probability a participating client drops mid-training.
    eligibility_rate:
        Probability a checked-in device is currently eligible (idle,
        charging, unmetered network — Section 7.1's requirements).
    diurnal_amplitude:
        Day/night modulation of eligibility in [0, 1): the effective rate
        swings by ±amplitude over a 24-hour cycle (devices are mostly
        idle-and-charging at night).  This is why the paper repeats each
        experiment "at the same time of the day"; 0 disables it.
    max_examples:
        Hard cap on per-client examples (keeps real-training runs sane).
    """

    n_devices: int = 100_000
    mean_examples: float = 30.0
    sigma_examples: float = 0.65
    median_sec_per_example: float = 0.25
    sigma_speed: float = 0.75
    speed_data_correlation: float = 0.5
    overhead_s: float = 1.0
    dropout_rate: float = 0.1
    eligibility_rate: float = 0.8
    diurnal_amplitude: float = 0.0
    max_examples: int = 1000

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError("n_devices must be at least 1")
        if not (-1.0 <= self.speed_data_correlation <= 1.0):
            raise ValueError("speed_data_correlation must be in [-1, 1]")
        if not (0.0 <= self.dropout_rate <= 1.0):
            raise ValueError("dropout_rate must be in [0, 1]")
        if not (0.0 < self.eligibility_rate <= 1.0):
            raise ValueError("eligibility_rate must be in (0, 1]")
        if not (0.0 <= self.diurnal_amplitude < 1.0):
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        for f in ("mean_examples", "median_sec_per_example", "overhead_s",
                  "sigma_examples", "sigma_speed"):
            if not math.isfinite(getattr(self, f)):
                raise ValueError(f"{f} must be finite")
        for f in ("mean_examples", "median_sec_per_example", "overhead_s"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")
        if not self.max_examples >= 1:
            raise ValueError("max_examples must be at least 1")


@dataclass(frozen=True)
class DeviceProfile:
    """One device's static characteristics.

    ``sec_per_example`` captures compute capability; ``n_examples`` the
    local data volume; ``download_bandwidth``/``upload_bandwidth`` the
    network (bytes/s).
    """

    device_id: int
    sec_per_example: float
    n_examples: int
    download_bandwidth: float
    upload_bandwidth: float

    def execution_time(self, overhead_s: float, epochs: int = 1) -> float:
        """Local training time: overhead + examples × per-example cost.

        Both heterogeneity sources compound here — a slow device with a
        lot of data is the straggler archetype of Figure 11.
        """
        return overhead_s + epochs * self.n_examples * self.sec_per_example


class DevicePopulation:
    """Deterministic, lazily-sampled fleet of devices."""

    def __init__(self, config: PopulationConfig | None = None, seed: int = 0):
        self.config = config or PopulationConfig()
        self.seed = seed
        self._cache: dict[int, DeviceProfile] = {}

    def profile(self, device_id: int) -> DeviceProfile:
        """The device's profile (stable across calls and runs)."""
        cfg = self.config
        if not (0 <= device_id < cfg.n_devices):
            raise ValueError(f"device_id {device_id} outside population")
        cached = self._cache.get(device_id)
        if cached is not None:
            return cached
        rng = child_rng(self.seed, "device-profile", device_id)
        # Shared latent factor induces the slow-device/big-data correlation.
        # Python-float arithmetic is IEEE-identical to the numpy scalar
        # ops; only ``exp`` stays on numpy, whose SIMD loop may differ
        # from libm's in the last bit.
        z, e_speed, e_data = rng.standard_normal(3).tolist()
        rho = cfg.speed_data_correlation
        speed_factor = rho * z + math.sqrt(1.0 - rho * rho) * e_speed
        data_factor = z if rho != 0 else e_data

        sec_per_example = cfg.median_sec_per_example * float(
            np.exp(cfg.sigma_speed * speed_factor)
        )
        # Clipping before rounding equals rounding before clipping for
        # integer bounds, and keeps an overflowed ``inf`` out of round().
        n_examples = round(min(max(
            cfg.mean_examples * float(np.exp(cfg.sigma_examples * data_factor)), 1.0,
        ), cfg.max_examples))
        # Mobile network bandwidths, log-normal around ~2 MB/s down, 1 MB/s up.
        bw = rng.lognormal(mean=0.0, sigma=0.5)
        prof = DeviceProfile(
            device_id=device_id,
            sec_per_example=sec_per_example,
            n_examples=n_examples,
            download_bandwidth=2e6 * float(bw),
            upload_bandwidth=1e6 * float(bw),
        )
        self._cache[device_id] = prof
        return prof

    # -- session-scoped materialization ----------------------------------------
    #
    # The orchestrator acquires a profile with ``checkout`` when a session
    # starts and calls ``release`` when it ends.  For this object-per-device
    # population both are trivial (profiles are cached forever), so the
    # default path is unchanged; :class:`ColumnarDevicePopulation` overrides
    # them to keep Python objects alive only while a session is active.

    def checkout(self, device_id: int) -> DeviceProfile:
        """Materialize a profile for the duration of an active session."""
        return self.profile(device_id)

    def release(self, device_id: int) -> None:
        """Session over — drop any session-scoped materialization (no-op)."""

    @property
    def active_profiles(self) -> int:
        """Profiles currently pinned by active sessions (all cached here)."""
        return len(self._cache)

    # -- stochastic per-participation behaviour --------------------------------

    def eligibility_rate_at(self, time_s: float) -> float:
        """Effective eligibility rate at a simulated time of day.

        The fleet's availability peaks at night (hour 3) when phones sit
        idle on chargers; with zero amplitude the rate is constant.
        """
        cfg = self.config
        if cfg.diurnal_amplitude == 0.0:
            return cfg.eligibility_rate
        day = 24 * 3600.0
        phase = 2.0 * np.pi * ((time_s % day) / day - 3.0 / 24.0)
        rate = cfg.eligibility_rate * (1.0 + cfg.diurnal_amplitude * np.cos(phase))
        return float(np.clip(rate, 0.0, 1.0))

    def is_eligible(
        self, device_id: int, checkin_count: int, time_s: float = 0.0
    ) -> bool:
        """Whether the device passes eligibility at this check-in.

        Eligibility (idle + charging + unmetered) fluctuates; it is
        re-rolled per check-in attempt, deterministically, against the
        (possibly diurnal) rate at ``time_s``.
        """
        rng = child_rng(self.seed, "eligibility", device_id, checkin_count)
        return bool(rng.random() < self.eligibility_rate_at(time_s))

    def dropout_point(self, device_id: int, participation: int) -> float | None:
        """If this participation drops out, the fraction of training done.

        Returns ``None`` for participations that run to completion, else
        a fraction in (0, 1) of the execution time at which the client
        silently dies (battery, app eviction, network loss).
        """
        rng = child_rng(self.seed, "dropout", device_id, participation)
        if rng.random() >= self.config.dropout_rate:
            return None
        return float(rng.uniform(0.05, 0.95))

    # -- population statistics ----------------------------------------------------

    def sample_profiles(self, n: int, rng: np.random.Generator) -> list[DeviceProfile]:
        """Profiles of ``n`` devices sampled uniformly without replacement."""
        ids = rng.choice(self.config.n_devices, size=min(n, self.config.n_devices),
                         replace=False)
        return [self.profile(int(i)) for i in ids]

    def execution_time_stats(self, sample_size: int = 2000) -> dict[str, float]:
        """Summary statistics of the execution-time distribution (Fig. 2)."""
        rng = child_rng(self.seed, "exec-stats")
        profs = self.sample_profiles(sample_size, rng)
        times = np.array([p.execution_time(self.config.overhead_s) for p in profs])
        return {
            "mean": float(times.mean()),
            "median": float(np.median(times)),
            "p95": float(np.percentile(times, 95)),
            "p99": float(np.percentile(times, 99)),
            "max": float(times.max()),
            # Bulk spread (p0.5–p99.5), robust to lone extremes — the
            # visible range of the paper's Figure 2 histogram.
            "spread_orders_of_magnitude": float(
                np.log10(
                    np.percentile(times, 99.5) / max(np.percentile(times, 0.5), 1e-9)
                )
            ),
        }


class ColumnarDevicePopulation(DevicePopulation):
    """Struct-of-arrays fleet: one numpy column per attribute, no objects.

    The object-per-device :class:`DevicePopulation` tops out around 10^5
    clients — each profile is a Python object plus a per-device SHA-256
    seed derivation, and a million of them is ~1 GB of interpreter heap.
    Here the whole fleet lives in five numpy columns (36 bytes/device,
    so a 1M fleet is 36 MB) generated vectorized in fixed-size chunks,
    and :class:`DeviceProfile` objects exist only while a client is in an
    active session (``checkout``/``release``).

    Columns use the same distributional formulas as the scalar path (the
    shared latent factor, log-normal speed/data/bandwidth, Section 2's
    correlation) but draw them chunk-vectorized from
    ``child_rng(seed, "columnar-fleet", chunk)`` — a deliberate, separate
    deterministic realization.  Matching the scalar path bit-for-bit
    would require one SHA-256 seed derivation per device, which is
    exactly the per-device cost this class removes; the default
    (object) path is therefore byte-identical to before, and the
    columnar path is its own reproducible fleet.

    One column goes beyond the scalar profile fields: ``payload_bytes``,
    the per-device serialized-update size (log-normal around
    ``payload_base_bytes``).
    """

    #: devices generated per vectorized RNG draw
    CHUNK = 262_144

    def __init__(
        self,
        config: PopulationConfig | None = None,
        seed: int = 0,
        payload_base_bytes: int = 2_000_000,
        payload_sigma: float = 0.25,
    ):
        super().__init__(config, seed)
        if payload_base_bytes < 1:
            raise ValueError("payload_base_bytes must be positive")
        if payload_sigma < 0:
            raise ValueError("payload_sigma must be non-negative")
        self.payload_base_bytes = payload_base_bytes
        self.payload_sigma = payload_sigma
        self._active: dict[int, DeviceProfile] = {}
        self._build_columns()

    def _build_columns(self) -> None:
        cfg = self.config
        n = cfg.n_devices
        rho = cfg.speed_data_correlation
        sec = np.empty(n, dtype=np.float64)
        n_ex = np.empty(n, dtype=np.int32)
        bw = np.empty(n, dtype=np.float64)
        payload = np.empty(n, dtype=np.int64)
        for chunk in range(0, n, self.CHUNK):
            stop = min(chunk + self.CHUNK, n)
            m = stop - chunk
            rng = child_rng(self.seed, "columnar-fleet", chunk // self.CHUNK)
            z, e_speed, e_data, e_pay = rng.standard_normal((4, m))
            speed_factor = rho * z + np.sqrt(1.0 - rho * rho) * e_speed
            data_factor = z if rho != 0 else e_data
            sec[chunk:stop] = cfg.median_sec_per_example * np.exp(
                cfg.sigma_speed * speed_factor
            )
            n_ex[chunk:stop] = np.clip(
                np.round(cfg.mean_examples * np.exp(cfg.sigma_examples * data_factor)),
                1,
                cfg.max_examples,
            ).astype(np.int32)
            bw[chunk:stop] = rng.lognormal(mean=0.0, sigma=0.5, size=m)
            payload[chunk:stop] = np.maximum(
                np.round(
                    self.payload_base_bytes * np.exp(self.payload_sigma * e_pay)
                ),
                1,
            ).astype(np.int64)
        self.sec_per_example = sec
        self.n_examples = n_ex
        self.download_bandwidth = 2e6 * bw
        self.upload_bandwidth = 1e6 * bw
        self.payload_bytes = payload

    def columns_nbytes(self) -> int:
        """Total bytes held by the fleet columns (the SoA footprint)."""
        return sum(
            arr.nbytes
            for arr in (
                self.sec_per_example, self.n_examples, self.download_bandwidth,
                self.upload_bandwidth, self.payload_bytes,
            )
        )

    # -- lazy per-session materialization --------------------------------------

    def profile(self, device_id: int) -> DeviceProfile:
        """A transient :class:`DeviceProfile` view of one device's columns.

        Unlike the scalar population this does **not** cache: the object
        is garbage once the caller drops it.  Use ``checkout``/``release``
        to pin a profile for the lifetime of an active session.
        """
        if not (0 <= device_id < self.config.n_devices):
            raise ValueError(f"device_id {device_id} outside population")
        pinned = self._active.get(device_id)
        if pinned is not None:
            return pinned
        return DeviceProfile(
            device_id=device_id,
            sec_per_example=float(self.sec_per_example[device_id]),
            n_examples=int(self.n_examples[device_id]),
            download_bandwidth=float(self.download_bandwidth[device_id]),
            upload_bandwidth=float(self.upload_bandwidth[device_id]),
        )

    def checkout(self, device_id: int) -> DeviceProfile:
        """Materialize and pin a profile while its session is active."""
        pinned = self._active.get(device_id)
        if pinned is None:
            pinned = self.profile(device_id)
            self._active[device_id] = pinned
        return pinned

    def release(self, device_id: int) -> None:
        """Drop the pinned profile once the session ends."""
        self._active.pop(device_id, None)

    @property
    def active_profiles(self) -> int:
        """Profiles currently pinned by active sessions."""
        return len(self._active)

    # -- batched fleet sampling -------------------------------------------------
    #
    # These take a device-id array plus an *engine-owned* generator and
    # roll the whole batch in one vectorized draw.  The realization
    # differs from the scalar per-device ``is_eligible``/``dropout_point``
    # streams (which remain available and deterministic per device); the
    # batched driver owns one RNG for the whole fleet instead.

    def execution_times(self, ids: np.ndarray, epochs: int = 1) -> np.ndarray:
        """Vectorized ``DeviceProfile.execution_time`` over ``ids``."""
        return (
            self.config.overhead_s
            + epochs * self.n_examples[ids] * self.sec_per_example[ids]
        )

    def transfer_times(self, ids: np.ndarray) -> np.ndarray:
        """Payload download + upload seconds for each device in ``ids``."""
        payload = self.payload_bytes[ids]
        return (
            payload / self.download_bandwidth[ids]
            + payload / self.upload_bandwidth[ids]
        )

    def eligibility_mask(
        self, ids: np.ndarray, time_s: float, rng: np.random.Generator
    ) -> np.ndarray:
        """One eligibility roll per device at the (diurnal) rate for ``time_s``."""
        return rng.random(len(ids)) < self.eligibility_rate_at(time_s)

    def dropout_fractions(
        self, ids: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-device dropout point in (0, 1), or NaN for completed runs."""
        u = rng.random(len(ids))
        frac = rng.uniform(0.05, 0.95, len(ids))
        return np.where(u < self.config.dropout_rate, frac, np.nan)
