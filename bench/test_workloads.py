import pytest

from workloads import WORKLOADS, generate


def argv_lists(workload, seed):
    return [inv.argv for inv in generate(workload, seed)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_lists(workload):
    assert argv_lists(workload, 7) == argv_lists(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_give_different_lists(workload):
    lists = {tuple(argv_lists(workload, seed)) for seed in range(10)}
    assert len(lists) == 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pass_shape_does_not_depend_on_the_seed(workload):
    def shape(seed):
        return sorted(str((inv.command, inv.fmt, inv.points, inv.nu, inv.expected_rows,
                           [arg for arg in inv.argv if arg.startswith("--")]))
                      for inv in generate(workload, seed))
    assert shape(1) == shape(2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_program_receives_only_strings(workload):
    for inv in generate(workload, 3):
        assert all(isinstance(arg, str) for arg in inv.argv)


def test_point_queries_cover_the_diagonal_and_the_classical_corner():
    seen = set()
    for seed in range(5):
        for inv in generate("point_queries", seed):
            if inv.oracle:
                p, q = inv.oracle["p"], inv.oracle["q"]
                seen.add("classical" if p == q == 1.0 else "diagonal" if p == q else "interior")
    assert seen == {"classical", "diagonal", "interior"}
