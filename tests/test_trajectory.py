import pytest

from phaselab.errors import ConfigurationError
from phaselab.io import trajectory_csv
from phaselab.trajectory import Trajectory


def test_record_rejects_a_non_increasing_time():
    traj = Trajectory()
    traj.record(0.0, mass=1.0)
    traj.record(0.1, mass=1.0)
    for t in (0.1, 0.05):
        with pytest.raises(ConfigurationError, match="increase strictly"):
            traj.record(t, mass=1.0)
    assert traj.times == [0.0, 0.1]
    assert traj.logs == {"mass": [1.0, 1.0]}


@pytest.mark.parametrize("values", [
    {"mass": 1.0},                                  # one quantity missing
    {"mass": 1.0, "energy": 0.5, "l1_norm": 1.0},   # one quantity too many
    {"energy": 0.5, "mass": 1.0},                   # the same names, reordered
    {"mass": 1.0, "enrgy": 0.5},                    # a misspelled name
])
def test_record_rejects_names_other_than_the_first_records(values):
    traj = Trajectory()
    traj.record(0.0, mass=1.0, energy=0.5)
    with pytest.raises(ConfigurationError, match="names"):
        traj.record(0.1, **values)
    assert traj.times == [0.0]
    assert traj.logs == {"mass": [1.0], "energy": [0.5]}


def test_recorded_quantity_becomes_a_csv_column(tmp_path):
    traj = Trajectory()
    for n in range(3):
        traj.record(0.5 * n, trace=1.0, l2_norm=2.0, guard_margin=0.25 * n)
    lines = trajectory_csv(tmp_path / "traj.csv", traj).read_text().splitlines()
    assert lines == ["time,trace,l2_norm,guard_margin",
                     "0,1,2,0", "0.5,1,2,0.25", "1,1,2,0.5"]
