import dataclasses
import warnings

import numpy as np
import pytest

from qdemod.config import SCHEMAS
from qdemod.limits import PM, closed_form_snr
from qdemod.sensing import (FABRY_PEROT, MULTIPASS, SPEED_OF_LIGHT, SensorConfig,
                            fabry_perot_m, interrogation_constraint, position_pm_params,
                            velocity_fm_params)


def test_position_beta_unit_case():
    lam0 = 1.55e-6
    cfg = SensorConfig(passes=1, incidence=0.0, wavelength=lam0,
                       rms_position=lam0 / (4.0 * np.pi))
    assert position_pm_params(cfg).beta == pytest.approx(1.0, rel=1e-12)


def test_position_beta_scalings():
    lam0 = 1.0e-6
    base = SensorConfig(passes=3, incidence=0.0, wavelength=lam0, rms_position=1e-9)
    doubled = SensorConfig(passes=6, incidence=0.0, wavelength=lam0, rms_position=1e-9)
    assert position_pm_params(doubled).beta == pytest.approx(
        2.0 * position_pm_params(base).beta, rel=1e-12)
    tilted = SensorConfig(passes=3, incidence=np.pi / 3.0, wavelength=lam0,
                          rms_position=1e-9)
    assert position_pm_params(tilted).beta == pytest.approx(
        0.5 * position_pm_params(base).beta, rel=1e-12)


def test_velocity_unit_case():
    b = 1.0e3
    rms_v = b * 1.55e-6 / 4.0  # F = 2 v / lambda0 = b / 2
    cfg = SensorConfig(passes=1, incidence=0.0, wavelength=1.55e-6,
                       rms_velocity=rms_v, message_bandwidth=b)
    vel = velocity_fm_params(cfg)
    assert vel.beta == pytest.approx(1.0, rel=1e-12)
    assert vel.deviation == pytest.approx(b / 2.0, rel=1e-12)
    # beta / F = 2 / b always
    assert vel.beta / vel.deviation == pytest.approx(2.0 / b, rel=1e-12)


def test_fabry_perot_m():
    assert fabry_perot_m(0.0) == pytest.approx(1.0)
    assert fabry_perot_m(0.81) == pytest.approx(19.0, rel=1e-12)
    with pytest.raises(ValueError):
        fabry_perot_m(1.0)


def test_fabry_perot_monotone():
    rs = np.linspace(0.0, 0.99, 40)
    ms = [fabry_perot_m(r) for r in rs]
    assert all(a < b for a, b in zip(ms, ms[1:]))


def test_fabry_perot_narrowband_flag():
    cfg = SensorConfig(kind=FABRY_PEROT, reflectivity=0.81, wavelength=1.55e-6,
                       rms_position=1.55e-6 / 3.0)
    pos = position_pm_params(cfg)
    assert pos.beta > 0.1
    assert not pos.narrowband_ok


def test_interrogation_constraint():
    cfg = SensorConfig(passes=1, cavity_length=0.3, message_bandwidth=1e3)
    lhs, ok = interrogation_constraint(cfg)
    assert lhs == 0.0 and ok
    cfg2 = SensorConfig(passes=100, cavity_length=0.3, message_bandwidth=1e3)
    lhs2, ok2 = interrogation_constraint(cfg2)
    assert lhs2 == pytest.approx(2 * 99 * 0.3 / SPEED_OF_LIGHT, rel=1e-12)
    assert lhs2 == pytest.approx(1.98e-7, rel=1e-3)
    assert ok2
    # boundary: interrogation time equal to 1/b fails the factor-10 margin
    long_cavity = SPEED_OF_LIGHT / (2 * 99 * 1e3)  # lhs = 1/b
    cfg3 = SensorConfig(passes=100, cavity_length=long_cavity, message_bandwidth=1e3)
    lhs3, ok3 = interrogation_constraint(cfg3)
    assert lhs3 == pytest.approx(1e-3, rel=1e-12)
    assert not ok3


@pytest.mark.parametrize("fields, mapping, key", [
    ({"passes": 1e308, "rms_position": 1.0}, position_pm_params, "position_beta"),
    ({"rms_velocity": 1e300, "message_bandwidth": 1e-300}, velocity_fm_params, "velocity_beta"),
    ({"passes": 1e308, "cavity_length": 0.0}, interrogation_constraint, "interrogation_lhs_s"),
], ids=["position", "velocity", "interrogation"])
def test_a_map_that_overflows_raises(fields, mapping, key):
    """Fields in range whose map is not finite (2 M cos(theta) at M = 1e308,
    2F/b at b = 1e-300, inf times L_cav = 0) raise ValueError naming the
    mapped value, for every caller and with no overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            mapping(SensorConfig(**fields))


def test_unit_rescaling_leaves_beta_invariant():
    """Scaling lambda0 and v_rms together (the same Doppler shift in units of
    the wavelength) keeps beta."""
    scale = 100.0
    b = 1e3
    cfg = SensorConfig(passes=2, wavelength=1.55e-6, rms_velocity=0.5,
                       message_bandwidth=b)
    cfg2 = SensorConfig(passes=2, wavelength=1.55e-6 * scale,
                        rms_velocity=0.5 * scale,  # lengths rescale together
                        message_bandwidth=b)
    assert velocity_fm_params(cfg).beta == pytest.approx(
        velocity_fm_params(cfg2).beta, rel=1e-12)


def test_end_to_end_sense_to_limits():
    """Sensor-derived (beta, Lambda) gives identical SNR to direct limits calls."""
    lam0 = 1.55e-6
    cfg = SensorConfig(passes=4, incidence=0.0, wavelength=lam0,
                       rms_position=lam0 / (16.0 * np.pi))
    beta = position_pm_params(cfg).beta
    sigma2, snr = closed_form_snr(PM, beta, 100.0)
    sigma2_direct, snr_direct = closed_form_snr(PM, 1.0, 100.0)
    assert beta == pytest.approx(1.0, rel=1e-12)
    assert snr == pytest.approx(snr_direct, rel=1e-12)
    assert sigma2 == pytest.approx(sigma2_direct, rel=1e-12)


def test_sensor_validation():
    with pytest.raises(ValueError):
        SensorConfig(kind=FABRY_PEROT, reflectivity=None)
    with pytest.raises(ValueError):
        SensorConfig(kind=FABRY_PEROT, reflectivity=0.5, incidence=0.2)
    with pytest.raises(ValueError):
        SensorConfig(kind=MULTIPASS, passes=0.5)
    with pytest.raises(ValueError):
        position_pm_params(SensorConfig())


def test_sense_schema_keys_are_the_sensor_fields():
    """cli builds SensorConfig(**cfg) from the sense schema: its keys and
    defaults are the sensor's fields, so no field is settable only in code."""
    fields = dataclasses.fields(SensorConfig)
    assert [k.name for k in SCHEMAS["sense"]] == [f.name for f in fields]
    assert [k.default for k in SCHEMAS["sense"]] == [f.default for f in fields]
