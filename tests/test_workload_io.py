import pytest

from winoconv.cost_model import LayerShape
from winoconv.workload import Workload, WorkloadLayer, load_workload, parse_workload


def test_builtin_vgg16d():
    w = load_workload("vgg16d")
    assert w is load_workload("vgg16d")  # one constant, not rebuilt per call
    assert w.name == "vgg16d"
    assert len(w.layers) == 13
    assert w.groups == ("conv1", "conv2", "conv3", "conv4", "conv5")
    assert [sum(l.group == g for l in w.layers) for g in w.groups] == [2, 2, 3, 3, 3]
    first, last = w.layers[0].shape, w.layers[-1].shape
    assert (first.h, first.c, first.k) == (224, 3, 64)
    assert (last.h, last.c, last.k) == (14, 512, 512)
    assert all(l.shape.r == 3 and l.pad == 1 and l.shape.n == 1 for l in w.layers)


def test_round_trip(tmp_path):
    path = tmp_path / "net.workload"
    path.write_text(
        "workload mini\n"
        "# layer n h w c k r pad group\n"
        "layer 1 16 16 3 8 3 1 stem\n"
        "layer 2 8 6 8 8 3 1 body\n"
        "layer 1 4 4 8 16 3 0 body\n"
        "layer 1 4 4 16 4 1 0 head\n"
    )
    assert load_workload(path) == Workload("mini", (
        WorkloadLayer(LayerShape(1, 16, 16, 3, 8, 3), 1, "stem"),
        WorkloadLayer(LayerShape(2, 8, 6, 8, 8, 3), 1, "body"),
        WorkloadLayer(LayerShape(1, 4, 4, 8, 16, 3), 0, "body"),
        WorkloadLayer(LayerShape(1, 4, 4, 16, 4, 1), 0, "head"),
    ))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="<string>: missing 'workload"):
        parse_workload("")
    with pytest.raises(ValueError, match=":2: expected 'layer"):
        parse_workload("workload x\nlayer 1 2 3\n")
    with pytest.raises(ValueError, match=":1: 'layer' before"):
        parse_workload("layer 1 8 8 1 1 3 1 g\n")
    with pytest.raises(ValueError, match=":2: non-integer"):
        parse_workload("workload x\nlayer 1 8 8 one 1 3 1 g\n")
    with pytest.raises(ValueError, match=":3: unknown record"):
        parse_workload("workload x\nlayer 1 8 8 1 1 3 1 g\nbogus\n")
    with pytest.raises(ValueError, match="duplicate 'workload'"):
        parse_workload("workload x\nworkload y\n")
    for labels in ("aba", "aabba"):
        with pytest.raises(ValueError, match="group 'a' is not contiguous"):
            parse_workload("workload x\n" + "".join(f"layer 1 8 8 1 1 3 1 {g}\n" for g in labels))


def test_comments_and_blank_lines():
    w = parse_workload(
        "# a comment\n"
        "workload tiny  # trailing comment\n"
        "\n"
        "layer 1 8 8 2 4 3 1 g1\n"
    )
    assert w.name == "tiny" and len(w.layers) == 1


def test_unknown_builtin():
    with pytest.raises(ValueError, match="unknown workload"):
        load_workload("no_such_net")


def test_invalid_layer_fields():
    with pytest.raises(ValueError, match=":2: .*must be >= 1"):
        parse_workload("workload x\nlayer 0 8 8 1 1 3 1 g\n")
    with pytest.raises(ValueError, match="pad"):
        WorkloadLayer(LayerShape(1, 8, 8, 1, 1, 3), -1, "g")
