import pytest

from hwcost.analytic import (AccessProfile, DeviceSpec, EnergySpec, SparsityInfo,
                             default_access_profile,
                             eyeriss_layer_energy, eyeriss_network_energy,
                             paleo_layer_runtime, paleo_network_runtime,
                             parse_device_spec, parse_energy_spec)
from hwcost.netgraph import (NetworkConfig, TensorShape, conv2d, count_ops,
                             fully_connected, parse_network, pool2d)

from oracles import conv_loopnest, fc_loopnest, pool_loopnest


def _device(**kw):
    base = dict(peak_flops=1e12, read_bandwidth=4e9, write_bandwidth=4e9,
                ppp_compute=1.0, ppp_io=1.0, bytes_per_element=4)
    base.update(kw)
    return DeviceSpec(**base)


def test_compute_time_definition():
    # 1e9 flops at 1e12 flops/s is exactly 1 ms; IO negligible only if zeroed,
    # so check the compute component alone
    layer = fully_connected("f", TensorShape(1, 500, 1, 1), units=1000)  # 1e6 flops... scaled below
    device = _device(peak_flops=1e9)  # 1e6 flops / 1e9 = 1e-3 s
    ops = count_ops(layer)
    assert ops.flops == 10 ** 6
    rt = paleo_layer_runtime(layer, device)
    assert rt.compute_ms == 1.0


def test_read_time_definition():
    # reads totaling 4e6 bytes over 4e9 B/s is exactly 1 ms
    layer = fully_connected("f", TensorShape(1, 500000, 1, 1), units=1)
    ops = count_ops(layer)
    assert (ops.input_reads + ops.weight_reads) * 4 == 4 * 10 ** 6
    rt = paleo_layer_runtime(layer, _device())
    assert rt.read_ms == 1.0


def test_halving_ppp_compute_doubles_compute_only():
    layer = conv2d("c", TensorShape(1, 3, 8, 8), out_channels=4, kernel=3, padding=1)
    full = paleo_layer_runtime(layer, _device())
    half = paleo_layer_runtime(layer, _device(ppp_compute=0.5))
    assert half.compute_ms == 2.0 * full.compute_ms
    assert half.read_ms == full.read_ms
    assert half.write_ms == full.write_ms


def test_component_additivity():
    layer = conv2d("c", TensorShape(2, 3, 8, 8), out_channels=16, kernel=3, padding=1)
    rt = paleo_layer_runtime(layer, _device(ppp_compute=0.5, ppp_io=0.25))
    assert rt.total_ms == rt.read_ms + rt.compute_ms + rt.write_ms
    assert rt.read_ms >= 0 and rt.compute_ms >= 0 and rt.write_ms >= 0


@pytest.mark.parametrize("m", [2.0, 10.0, 0.5])
def test_homogeneity_in_device_rates(m):
    layer = conv2d("c", TensorShape(1, 4, 16, 16), out_channels=8, kernel=5, stride=2,
                   padding=2)
    base = paleo_layer_runtime(layer, _device())
    scaled = paleo_layer_runtime(layer, _device(peak_flops=1e12 * m,
                                                read_bandwidth=4e9 * m,
                                                write_bandwidth=4e9 * m))
    assert scaled.total_ms == pytest.approx(base.total_ms / m, rel=1e-12)


def test_empty_network_runtime_is_zero():
    result = paleo_network_runtime(NetworkConfig("empty", ()), _device())
    assert result.total_ms == 0.0
    assert result.layers == ()


def test_network_runtime_sums_layers():
    net = parse_network("""
c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4
f1 fc out=10
""")
    device = _device(ppp_compute=0.5, ppp_io=0.25)
    result = paleo_network_runtime(net, device)
    total = 0.0
    for _, rt in result.layers:
        total += rt.total_ms
    assert result.total_ms == total
    assert result.total_ms == sum(
        paleo_layer_runtime(layer, device).total_ms for layer in net.layers)


def test_energy_definition_example():
    # 100 MACs at 1 pJ plus 50 DRAM accesses at 100 pJ = 5100 pJ
    layer = fully_connected("f", TensorShape(1, 10, 1, 1), units=10)
    assert count_ops(layer).macs == 100
    spec = EnergySpec(e_mac=1.0, levels=(("DRAM", 100.0),), bitwidth_reference=16)
    profile = AccessProfile((("DRAM", 50),))
    energy = eyeriss_layer_energy(layer, spec, profile)
    assert energy.compute_pj == 100.0
    assert energy.data_pj == 5000.0
    assert energy.total_pj == 5100.0


def test_full_sparsity_zeroes_energy():
    layer = conv2d("c", TensorShape(1, 3, 8, 8), out_channels=4, kernel=3, padding=1)
    spec = EnergySpec(e_mac=2.0, levels=(("SRAM", 5.0), ("DRAM", 200.0)))
    profile = AccessProfile((("SRAM", 1000), ("DRAM", 100)))
    energy = eyeriss_layer_energy(layer, spec, profile, SparsityInfo(1.0))
    assert energy.compute_pj == 0.0
    assert energy.data_pj == 0.0


def test_half_bitwidth_halves_energy():
    layer = fully_connected("f", TensorShape(1, 10, 1, 1), units=10)
    spec = EnergySpec(e_mac=1.0, levels=(("DRAM", 100.0),), bitwidth_reference=16)
    full = eyeriss_layer_energy(layer, spec, bitwidth=16)
    half = eyeriss_layer_energy(layer, spec, bitwidth=8)
    assert half.total_pj == full.total_pj / 2.0


def test_unknown_level_is_configuration_error():
    layer = fully_connected("f", TensorShape(1, 4, 1, 1), units=2)
    spec = EnergySpec(e_mac=1.0, levels=(("DRAM", 100.0),))
    with pytest.raises(ValueError, match=r"^access profile references unknown level\(s\) "
                                         r"\['L2'\]; energy spec defines \['DRAM'\]$"):
        eyeriss_layer_energy(layer, spec, AccessProfile((("L2", 10),)))


def test_default_profile_fc():
    layer = fully_connected("f", TensorShape(1, 4, 1, 1), units=2)
    profile = default_access_profile(layer)
    assert dict(profile.counts) == {"DRAM": 4 + 8 + 2}


def test_default_profile_single_placement_conv():
    oracle = conv_loopnest(1, 1, 3, 3, 3, 3, 1, 0, 1)
    layer = conv2d("c", TensorShape(1, 1, 3, 3), out_channels=1, kernel=3)
    profile = default_access_profile(layer)
    expected = oracle["input_reads"] + oracle["weight_reads"] + oracle["output_writes"]
    assert dict(profile.counts) == {"DRAM": expected}
    assert expected == 19


@pytest.mark.parametrize("make", [
    lambda: conv2d("c", TensorShape(2, 3, 8, 8), out_channels=4, kernel=3, padding=1),
    lambda: pool2d("p", TensorShape(1, 8, 8, 8), kernel=2, stride=2),
    lambda: fully_connected("f", TensorShape(3, 17, 1, 1), units=9),
])
def test_default_profile_totals(make):
    layer = make()
    ops = count_ops(layer)
    assert default_access_profile(layer).total == (
        ops.input_reads + ops.weight_reads + ops.output_writes)


def test_energy_monotonicity():
    layer = fully_connected("f", TensorShape(1, 16, 1, 1), units=8)
    spec = EnergySpec(e_mac=1.0, levels=(("DRAM", 100.0),), bitwidth_reference=16)
    base = eyeriss_layer_energy(layer, spec, AccessProfile((("DRAM", 100),)))
    more_accesses = eyeriss_layer_energy(layer, spec, AccessProfile((("DRAM", 200),)))
    assert more_accesses.total_pj > base.total_pj
    wider = eyeriss_layer_energy(layer, spec, AccessProfile((("DRAM", 100),)), bitwidth=32)
    assert wider.total_pj > base.total_pj
    sparser = eyeriss_layer_energy(layer, spec, AccessProfile((("DRAM", 100),)),
                                   SparsityInfo(0.5))
    assert sparser.total_pj < base.total_pj


def test_network_energy_breakdown_sums():
    net = parse_network("""
c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4
p1 pool k=2x2 s=2
f1 fc out=10
""")
    spec = EnergySpec(e_mac=1.5, levels=(("DRAM", 120.0),))
    result = eyeriss_network_energy(net, spec, sparsity=SparsityInfo(0.25), bitwidth=8)
    total = 0.0
    for _, energy in result.layers:
        total += energy.total_pj
    assert result.total_pj == total


def test_eyeriss_matches_loopnest_counts_exactly():
    spec = EnergySpec(e_mac=1.0, levels=(("DRAM", 100.0),), bitwidth_reference=16)
    cases = [
        conv2d("c", TensorShape(2, 3, 8, 8), out_channels=4, kernel=3, padding=1),
        conv2d("c", TensorShape(1, 2, 5, 5), out_channels=3, kernel=3, stride=2),
        pool2d("p", TensorShape(2, 4, 6, 6), kernel=2, stride=2),
        fully_connected("f", TensorShape(2, 8, 1, 1), units=8),
    ]
    for layer in cases:
        s = layer.input
        if layer.kind.value == "conv":
            o = conv_loopnest(s.batch, s.channels, s.height, s.width, layer.kernel_h,
                              layer.kernel_w, layer.stride, layer.padding,
                              layer.output_channels)
            macs = o["macs"]
        elif layer.kind.value == "pool":
            o = pool_loopnest(s.batch, s.channels, s.height, s.width, layer.kernel_h,
                              layer.kernel_w, layer.stride, layer.padding)
            macs = 0
            o["weight_reads"] = 0
        else:
            o = fc_loopnest(s.batch, layer.in_units, layer.output_units)
            macs = o["macs"]
        accesses = o["input_reads"] + o["weight_reads"] + o["output_writes"]
        energy = eyeriss_layer_energy(layer, spec)
        assert energy.compute_pj == macs * 1.0
        assert energy.data_pj == accesses * 100.0


def test_parse_device_spec_round_trip():
    text = """
# workstation
peak_flops = 1e12
read_bandwidth = 4e9
write_bandwidth = 2e9
ppp_compute = 0.5
ppp_io = 0.25
bytes_per_element = 4
"""
    device = parse_device_spec(text)
    assert device == DeviceSpec(1e12, 4e9, 2e9, 0.5, 0.25, 4)


def test_parse_device_spec_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_device_spec("peak_flops = 1e12\nread_bandwidth = 1\nwrite_bandwidth = 1\nwatts = 5")


def test_parse_energy_spec():
    spec = parse_energy_spec("e_mac = 1.5\nlevels = RF:0.5, SRAM:6, DRAM:200\nbitwidth_reference = 8")
    assert spec.e_mac == 1.5
    assert spec.levels == (("RF", 0.5), ("SRAM", 6.0), ("DRAM", 200.0))
    assert spec.bitwidth_reference == 8


def test_spec_validation():
    with pytest.raises(ValueError):
        DeviceSpec(0.0, 1e9, 1e9)
    with pytest.raises(ValueError):
        DeviceSpec(1e12, 1e9, 1e9, ppp_compute=1.5)
    with pytest.raises(ValueError):
        EnergySpec(e_mac=1.0, levels=())
    with pytest.raises(ValueError):
        SparsityInfo(1.5)


@pytest.mark.parametrize("make, error", [
    (lambda: EnergySpec(e_mac=1.0, levels=(("DRAM", 200.0), ("SRAM", 6.0), ("DRAM", 1.0))),
     "levels entry 2: DRAM was given at entry 0"),
    (lambda: parse_energy_spec("e_mac = 1\nlevels = DRAM:200, DRAM:1\n"),
     "energy spec: levels entry 1: DRAM was given at entry 0"),
    (lambda: AccessProfile((("DRAM", 5), ("DRAM", 7))),
     "counts entry 1: DRAM was given at entry 0"),
], ids=["energy spec", "energy spec text", "access profile"])
def test_a_level_named_twice_is_an_error(make, error):
    """Not the last value silently kept, as a dict of the entries would."""
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == error


def test_a_derated_rate_that_underflows_is_an_error():
    with pytest.raises(ValueError, match=r"^read_bandwidth \* ppp_io underflows to 0$"):
        _device(read_bandwidth=1e-10, ppp_io=1e-320)


@pytest.mark.parametrize("run, error", [
    # a layer's read time overflows
    (lambda net: paleo_network_runtime(net, _device(read_bandwidth=1e-300, ppp_io=1e-10)),
     "layer c1: the runtime overflows"),
    # every layer finite, the sum past the float range at the second
    (lambda net: eyeriss_network_energy(net, EnergySpec(1.0, (("DRAM", 1e306),)), {
        name: AccessProfile((("DRAM", 150),)) for name in ("c1", "f1", "f2")}),
     "layer f1: 1.5e+308 pJ overflows the network total"),
    (lambda net: eyeriss_network_energy(net, EnergySpec(1e306, (("DRAM", 1.0),))),
     "layer c1: the energy overflows"),
], ids=["runtime", "energy total", "energy"])
def test_a_network_total_that_overflows_names_the_layer(run, error):
    net = parse_network("c1 conv in=1x3x8x8 k=3x3 s=1 p=1 out=4\nf1 fc out=10\nf2 fc out=10\n")
    with pytest.raises(ValueError) as exc:
        run(net)
    assert str(exc.value) == error
