import dataclasses

import pytest

from hwcost.netgraph import (GeometryError, LayerConfig, LayerKind, NetworkConfig,
                             NetworkParseError, ShapeMismatchError, TensorShape,
                             conv2d, count_ops, fully_connected, parse_network, pool2d)

from hwcost import polyreg, synth
from oracles import (conv_loopnest, fc_loopnest, format_network, output_shape_reference,
                     pool_loopnest)


def test_tensor_shape_requires_positive_dims():
    with pytest.raises(ValueError):
        TensorShape(0, 1, 1, 1)
    with pytest.raises(ValueError):
        TensorShape(1, 1, -2, 1)


def test_same_padding_conv_keeps_spatial_size():
    layer = conv2d("c", TensorShape(1, 3, 32, 32), out_channels=8, kernel=3, padding=1)
    assert layer.output == TensorShape(1, 8, 32, 32)


def test_pool_halves_spatial_size():
    layer = pool2d("p", TensorShape(1, 3, 4, 4), kernel=2, stride=2)
    assert layer.output == TensorShape(1, 3, 2, 2)


def test_strided_conv_output_matches_placement_enumeration():
    # 5x5 input, 3x3 kernel, stride 2: enumerate placements by brute force
    oracle = conv_loopnest(1, 1, 5, 5, 3, 3, 2, 0, 1)
    layer = conv2d("c", TensorShape(1, 1, 5, 5), out_channels=1, kernel=3, stride=2)
    out = layer.output
    assert (out.height, out.width) == (oracle["out_h"], oracle["out_w"]) == (2, 2)


def test_fc_output_shape():
    layer = fully_connected("f", TensorShape(2, 3, 4, 4), units=7)
    assert layer.output == TensorShape(2, 7, 1, 1)


def test_invalid_geometry_rejected_at_construction():
    for make, message in (
        (lambda: conv2d("c", TensorShape(1, 1, 4, 4), out_channels=1, kernel=5),
         "layer c: kernel 5x5 with stride 1, padding 0 does not fit a 4x4 input"),
        (lambda: pool2d("p", TensorShape(1, 1, 3, 3), kernel=4, stride=1, padding=0),
         "layer p: kernel 4x4 with stride 1, padding 0 does not fit a 3x3 input"),
        (lambda: conv2d("c", TensorShape(1, 1, 8, 4), out_channels=1, kernel=(3, 5)),
         "layer c: kernel 3x5 with stride 1, padding 0 does not fit a 8x4 input"),
        (lambda: pool2d("p", TensorShape(1, 1, 4, 8), kernel=(7, 3), stride=2, padding=1),
         "layer p: kernel 7x3 with stride 2, padding 1 does not fit a 4x8 input"),
    ):
        with pytest.raises(GeometryError) as err:
            make()
        assert str(err.value) == message


def test_layer_output_matches_reference_on_profiles_and_networks():
    samples = polyreg.read_profile_csv(synth.generate_csv(synth.SynthConfig(count=40), seed=5))
    layers = [sample.layer for sample in samples]
    assert len(layers) == 120
    for text in (VGG16, CIFAR_STYLE, CHAIN):
        layers += parse_network(text).layers
    for layer in layers:
        out = layer.output
        assert (out.batch, out.channels, out.height, out.width) == output_shape_reference(layer)


def test_fc_rejects_spatial_fields():
    with pytest.raises(ValueError):
        LayerConfig("f", LayerKind.FULLY_CONNECTED, TensorShape(1, 4, 1, 1),
                    kernel_h=3, kernel_w=3, stride=1, padding=0, output_units=2)


def test_fc_counts_definition():
    layer = fully_connected("f", TensorShape(1, 4, 1, 1), units=2)
    ops = count_ops(layer)
    assert ops.macs == 8
    assert ops.flops == 16
    assert ops.params == 8
    assert (ops.input_reads, ops.weight_reads, ops.output_writes) == (4, 8, 2)


def test_single_placement_conv_counts():
    layer = conv2d("c", TensorShape(1, 1, 3, 3), out_channels=1, kernel=3)
    ops = count_ops(layer)
    assert ops.macs == 9
    assert ops.params == 9
    assert ops.output_writes == 1


def test_conv_counts_match_loopnest_oracle():
    layer = conv2d("c", TensorShape(2, 3, 8, 8), out_channels=16, kernel=3, stride=1,
                   padding=1)
    oracle = conv_loopnest(2, 3, 8, 8, 3, 3, 1, 1, 16)
    ops = count_ops(layer)
    assert ops.macs == oracle["macs"]
    assert ops.flops == 2 * oracle["macs"]
    assert ops.params == oracle["params"]
    assert ops.input_reads == oracle["input_reads"]
    assert ops.weight_reads == oracle["weight_reads"]
    assert ops.output_writes == oracle["output_writes"]


@pytest.mark.parametrize("b,ic,hw,k,s,p,oc", [
    (1, 1, 4, 2, 1, 0, 1),
    (2, 2, 5, 3, 2, 1, 4),
    (3, 4, 8, 3, 1, 1, 8),
    (1, 8, 8, 5, 3, 2, 2),
    (2, 3, 7, 1, 2, 0, 5),
])
def test_conv_loopnest_equivalence_small_layers(b, ic, hw, k, s, p, oc):
    oracle = conv_loopnest(b, ic, hw, hw, k, k, s, p, oc)
    ops = count_ops(conv2d("c", TensorShape(b, ic, hw, hw), out_channels=oc,
                           kernel=k, stride=s, padding=p))
    assert ops.macs == oracle["macs"]
    assert ops.params == oracle["params"]
    assert ops.output_writes == oracle["output_writes"]


@pytest.mark.parametrize("b,c,hw,k,s,p", [
    (1, 1, 4, 2, 2, 0),
    (2, 3, 6, 2, 2, 0),
    (2, 2, 5, 3, 1, 1),
    (1, 8, 8, 2, 3, 0),
])
def test_pool_loopnest_equivalence_small_layers(b, c, hw, k, s, p):
    oracle = pool_loopnest(b, c, hw, hw, k, k, s, p)
    ops = count_ops(pool2d("p", TensorShape(b, c, hw, hw), kernel=k, stride=s, padding=p))
    assert ops.macs == 0
    assert ops.flops == oracle["flops"]
    assert ops.input_reads == oracle["input_reads"]
    assert ops.output_writes == oracle["output_writes"]


@pytest.mark.parametrize("b,iu,ou", [(1, 4, 2), (2, 8, 8), (5, 3, 7)])
def test_fc_loopnest_equivalence(b, iu, ou):
    oracle = fc_loopnest(b, iu, ou)
    ops = count_ops(fully_connected("f", TensorShape(b, iu, 1, 1), units=ou))
    assert ops.macs == oracle["macs"]
    assert ops.flops == 2 * oracle["macs"]
    assert ops.input_reads == oracle["input_reads"]
    assert ops.output_writes == oracle["output_writes"]


def test_counts_invariant_under_renaming():
    a = conv2d("alpha", TensorShape(2, 3, 8, 8), out_channels=4, kernel=3, padding=1)
    b = dataclasses.replace(a, name="beta")
    assert count_ops(a) == count_ops(b)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_batch_scaling(m):
    base = conv2d("c", TensorShape(1, 3, 8, 8), out_channels=4, kernel=3, padding=1)
    scaled = conv2d("c", TensorShape(m, 3, 8, 8), out_channels=4, kernel=3, padding=1)
    ops, ops_m = count_ops(base), count_ops(scaled)
    assert ops_m.macs == m * ops.macs
    assert ops_m.input_reads == m * ops.input_reads
    assert ops_m.output_writes == m * ops.output_writes
    assert ops_m.params == ops.params
    assert ops_m.weight_reads == ops.weight_reads


def test_single_fc_spec_parses():
    net = parse_network("f1 fc in=1x4x1x1 out=2")
    assert len(net.layers) == 1
    assert net.layers[0].kind is LayerKind.FULLY_CONNECTED


def test_declared_input_mismatch_is_error():
    text = """
c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4
c2 conv in=1x4x9x9 k=3x3 s=1 p=1 out=4
"""
    with pytest.raises(ShapeMismatchError) as err:
        parse_network(text)
    assert "c2" in str(err.value)


# in the style of the small CIFAR10 conv network
CIFAR_STYLE = """
# small conv stack
conv1 conv in=1x3x32x32 k=3x3 s=1 p=1 out=32
conv2 conv k=3x3 s=1 p=1 out=32
pool1 pool k=2x2 s=2
conv3 conv k=3x3 s=1 p=1 out=64
pool2 pool k=2x2 s=2
fc1 fc out=10
"""


def test_six_layer_chain_parses():
    # layer count is the check
    net = parse_network(CIFAR_STYLE, name="cifar-style")
    assert len(net.layers) == 6
    assert net.layers[-1].input == TensorShape(1, 64 * 8 * 8, 1, 1)


def test_parse_error_reports_line_number():
    with pytest.raises(NetworkParseError) as err:
        parse_network("c1 conv in=1x3x8x8 k=3x3 out=4\nbogus line\n")
    assert err.value.line_no == 2


def test_pool_stride_defaults_to_kernel_height_in_text_and_api():
    square = parse_network("p1 pool in=1x3x8x8 k=2x2\n").layers[0]
    assert square == pool2d("p1", TensorShape(1, 3, 8, 8), kernel=(2, 2))
    assert square.stride == 2
    tall = parse_network("p1 pool in=1x3x9x9 k=3x2\n").layers[0]
    assert tall == pool2d("p1", TensorShape(1, 3, 9, 9), kernel=(3, 2))
    assert tall.stride == 3
    conv = parse_network("c1 conv in=1x3x8x8 k=2x2 out=4\n").layers[0]
    assert conv.stride == 1


@pytest.mark.parametrize("kind", ["conv", "pool"])
@pytest.mark.parametrize("kernel", ["3", "3x", "ax3", "3x3x3", "3.0x3", ""])
def test_malformed_kernel_names_its_line(kind, kernel):
    out = " out=4" if kind == "conv" else ""
    with pytest.raises(NetworkParseError) as err:
        parse_network(f"c0 conv in=1x3x8x8 k=3x3 out=4\nl1 {kind} k={kernel}{out}\n")
    assert err.value.line_no == 2
    assert "k=" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(NetworkParseError):
        parse_network("c1 conv in=1x3x8x8 k=3x3 out=4 zap=1")


def test_first_layer_needs_input_shape():
    with pytest.raises(NetworkParseError):
        parse_network("c1 conv k=3x3 out=4")


CHAIN = """
c1 conv in=2x3x16x16 k=5x5 s=1 p=2 out=8
p1 pool k=2x2 s=2
c2 conv k=3x3 s=1 p=0 out=4
f1 fc out=3
f2 fc out=2
"""


def test_shape_chaining_invariant():
    net = parse_network(CHAIN)
    for prev, nxt in zip(net.layers, net.layers[1:]):
        expected = prev.output
        if nxt.kind is LayerKind.FULLY_CONNECTED:
            expected = expected.flattened()
        assert nxt.input == expected


def test_duplicate_layer_names_rejected():
    with pytest.raises(ValueError):
        parse_network("a fc in=1x4x1x1 out=2\na fc out=3")


def test_network_requires_matching_chain():
    a = conv2d("a", TensorShape(1, 3, 8, 8), out_channels=4, kernel=3, padding=1)
    bad = conv2d("b", TensorShape(1, 5, 8, 8), out_channels=4, kernel=3, padding=1)
    with pytest.raises(ShapeMismatchError):
        NetworkConfig("n", (a, bad))


def test_format_network_round_trips():
    text = """
c1 conv in=2x3x16x16 k=5x5 s=1 p=2 out=8
p1 pool k=2x2 s=2 p=0
f1 fc out=3
"""
    net = parse_network(text)
    again = parse_network(format_network(net))
    assert again.layers == net.layers


# VGG-16 (configuration D; Simonyan & Zisserman 2015) as a layer chain
VGG16 = """
conv1_1 conv in=1x3x224x224 k=3x3 p=1 out=64
conv1_2 conv k=3x3 p=1 out=64
pool1 pool k=2x2
conv2_1 conv k=3x3 p=1 out=128
conv2_2 conv k=3x3 p=1 out=128
pool2 pool k=2x2
conv3_1 conv k=3x3 p=1 out=256
conv3_2 conv k=3x3 p=1 out=256
conv3_3 conv k=3x3 p=1 out=256
pool3 pool k=2x2
conv4_1 conv k=3x3 p=1 out=512
conv4_2 conv k=3x3 p=1 out=512
conv4_3 conv k=3x3 p=1 out=512
pool4 pool k=2x2
conv5_1 conv k=3x3 p=1 out=512
conv5_2 conv k=3x3 p=1 out=512
conv5_3 conv k=3x3 p=1 out=512
pool5 pool k=2x2
fc6 fc out=4096
fc7 fc out=4096
fc8 fc out=1000
"""


def test_vgg16_op_counts():
    """About 15.5 G MACs per 224x224 image; the weights alone are 138,344,128
    parameters (the published 138.36 M adds the 13,416 biases)."""
    net = parse_network(VGG16, name="vgg16")
    assert [layer.kind for layer in net.layers].count(LayerKind.CONV2D) == 13
    assert net.layers[-4].output == TensorShape(1, 512, 7, 7)
    counts = [count_ops(layer) for layer in net.layers]
    assert sum(c.macs for c in counts) == 15_470_264_320
    assert sum(c.params for c in counts) == 138_344_128
