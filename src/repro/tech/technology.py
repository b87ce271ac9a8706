"""Parametric technology model.

The paper's flow is retargetable: "the memory brick compiler and performance
estimation tools ... are technology dependent [but] the underlying circuit
methodology and circuit formulas remain the same" (Section 6).  This module
is that retargeting surface — a :class:`Technology` instance carries every
electrical and geometric parameter the rest of the package consumes, and a
new node is supported by constructing a new instance (see
:mod:`repro.tech.presets`).

All resistances are expressed per micrometre of transistor width
(ohm * um), all device capacitances per micrometre of width (F / um), and
all wire parasitics per micrometre of length.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict

from ..errors import TechnologyError
from .wire import WireLayer


class _ReadOnlyLayers(dict):
    """A technology's layer table: a plain ``dict`` to every reader (it
    compares, prints and fingerprints as one) that refuses mutation, so
    a technology stays immutable all the way down."""

    def _refuse(self, *args: Any, **kwargs: Any) -> None:
        raise TechnologyError("a Technology's wire layers are read-only; "
                              "build a new Technology (e.g. via scaled())")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return (_ReadOnlyLayers, (dict(self),))


@dataclass(frozen=True)
class Technology:
    """Electrical and geometric parameters of a CMOS node.

    Parameters
    ----------
    name:
        Human-readable node name, e.g. ``"cmos65"``.
    node_nm:
        Drawn feature size in nanometres (65 for the paper's silicon).
    vdd:
        Nominal supply voltage in volts.
    temp_c:
        Nominal junction temperature in Celsius.
    r_on_n:
        Effective on-resistance of an NMOS device per um of width
        (ohm * um); an NMOS of width ``w`` um presents ``r_on_n / w`` ohms.
    beta_p:
        PMOS/NMOS drive-strength ratio; ``r_on_p = r_on_n * beta_p`` for
        equal widths.
    c_gate:
        Gate capacitance per um of transistor width (F / um).
    c_diff:
        Source/drain diffusion capacitance per um of width (F / um).
    v_th_frac:
        Threshold voltage as a fraction of ``vdd`` (used by the switch-level
        transistor model and by slew estimation).
    i_leak_n:
        NMOS subthreshold leakage per um of width at nominal conditions
        (A / um).  PMOS leakage is scaled by ``beta_p``.
    layers:
        Routing layers by name (``"M1"`` .. ).  Local (in-brick) routing
        uses ``local_layer``; block-level routing uses ``routing_layer``.
    poly_pitch_um / m1_pitch_um:
        Contacted poly and metal-1 pitches; all leaf-cell and bitcell
        geometry is expressed in these pitches so that pattern constructs
        snap to a common grid (Section 2.1).
    row_height_tracks:
        Standard-cell row height in M1 tracks.
    w_min_um:
        Minimum transistor width.
    """

    name: str
    node_nm: float
    vdd: float
    temp_c: float
    r_on_n: float
    beta_p: float
    c_gate: float
    c_diff: float
    v_th_frac: float
    i_leak_n: float
    layers: Dict[str, WireLayer] = field(default_factory=dict)
    #: Gate drive (fraction of vdd) at which a device reaches its full
    #: effective conductance (velocity-saturated switch model).
    v_sat_frac: float = 0.62
    local_layer: str = "M1"
    bitline_layer: str = "M2"
    routing_layer: str = "M3"
    poly_pitch_um: float = 0.26
    m1_pitch_um: float = 0.20
    row_height_tracks: int = 9
    w_min_um: float = 0.12

    #: Immutable all the way down (frozen, with read-only layers of
    #: frozen :class:`WireLayer`), so :mod:`repro.perf.fingerprint`
    #: keeps this technology's canonical encoding on the instance for its
    #: lifetime instead of re-walking it for every cache key.
    FINGERPRINT_MEMO = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", _ReadOnlyLayers(self.layers))
        if self.vdd <= 0:
            raise TechnologyError(f"vdd must be positive, got {self.vdd}")
        if self.r_on_n <= 0 or self.c_gate <= 0 or self.c_diff < 0:
            raise TechnologyError("device R/C parameters must be positive")
        if not 0.0 < self.v_th_frac < 1.0:
            raise TechnologyError(
                f"v_th_frac must be in (0, 1), got {self.v_th_frac}")
        if self.beta_p < 1.0:
            raise TechnologyError(
                f"beta_p is PMOS/NMOS resistance ratio and must be >= 1, "
                f"got {self.beta_p}")
        for required in (self.local_layer, self.bitline_layer,
                         self.routing_layer):
            if required not in self.layers:
                raise TechnologyError(f"missing wire layer {required!r}")

    def __getstate__(self) -> Dict[str, Any]:
        # Only the fields: a memoized fingerprint encoding is rebuilt on
        # demand, never shipped to a worker.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # --- derived electrical quantities ------------------------------------

    @property
    def r_on_p(self) -> float:
        """Effective PMOS on-resistance per um of width (ohm * um)."""
        return self.r_on_n * self.beta_p

    @property
    def v_th(self) -> float:
        """Threshold voltage in volts."""
        return self.v_th_frac * self.vdd

    @property
    def row_height_um(self) -> float:
        """Standard-cell row height in micrometres."""
        return self.row_height_tracks * self.m1_pitch_um

    @property
    def tau(self) -> float:
        """Characteristic time constant of the node in seconds.

        Defined, as in the logical-effort literature, as the delay unit
        ``R * C`` of a minimum inverter: the on-resistance of a minimum
        NMOS times the gate capacitance of a minimum inverter input
        (``(1 + 1/beta_p_width) * w_min`` is folded into the inverter
        template instead; here we use the classic per-unit definition).
        """
        return (self.r_on_n / self.w_min_um) * (self.c_gate * self.w_min_um)

    def fo4_delay(self) -> float:
        """Fanout-of-4 inverter delay estimate in seconds.

        Uses the logical-effort estimate ``(p_inv + 4) * tau_eff`` with
        ``tau_eff = ln(2) * tau`` so the number corresponds to a 50 %
        crossing delay.  The 65 nm preset lands near the textbook ~25 ps.
        """
        # Parasitic delay of an inverter in tau units is c_diff/c_gate for
        # this first-order model (diffusion of both devices over gate of
        # both devices cancels the width ratio).
        p_inv = self.c_diff / self.c_gate
        return 0.69 * (p_inv + 4.0) * self.tau

    def inverter_beta(self) -> float:
        """PMOS/NMOS width ratio used in inverter templates.

        Chosen as ``sqrt(beta_p)`` — the classic compromise between equal
        rise/fall (ratio ``beta_p``) and minimum average delay (ratio 1).
        """
        return self.beta_p ** 0.5

    def layer(self, name: str) -> WireLayer:
        """Return the :class:`WireLayer` called ``name``."""
        try:
            return self.layers[name]
        except KeyError as exc:
            raise TechnologyError(f"unknown wire layer {name!r}") from exc

    # --- corner application -----------------------------------------------

    def scaled(self, r_scale: float = 1.0, c_scale: float = 1.0,
               vdd_scale: float = 1.0, leak_scale: float = 1.0,
               name_suffix: str = "") -> "Technology":
        """Return a copy with device/wire R, C, Vdd and leakage scaled.

        Used both by PVT corners (:mod:`repro.tech.corners`) and by the
        Monte-Carlo silicon emulation (:mod:`repro.silicon.variation`).
        """
        if r_scale <= 0 or c_scale <= 0 or vdd_scale <= 0:
            raise TechnologyError("corner scale factors must be positive")
        scaled_layers = {
            key: layer.scaled(r_scale=r_scale, c_scale=c_scale)
            for key, layer in self.layers.items()
        }
        return replace(
            self,
            name=self.name + name_suffix,
            vdd=self.vdd * vdd_scale,
            r_on_n=self.r_on_n * r_scale,
            c_gate=self.c_gate * c_scale,
            c_diff=self.c_diff * c_scale,
            i_leak_n=self.i_leak_n * leak_scale,
            layers=scaled_layers,
        )
