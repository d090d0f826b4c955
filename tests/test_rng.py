from bigsub.rng import SplitMix64

# reference outputs computed directly from the recurrence
SEED0_STREAM = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
SEED42_STREAM = [0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52, 0x581CE1FF0E4AE394]


def test_golden_streams():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(4)] == SEED0_STREAM
    rng = SplitMix64(42)
    assert [rng.next_u64() for _ in range(4)] == SEED42_STREAM


def test_block_matches_scalar_stream():
    for seed in (0, 1, 42, 2**63 + 12345, 2**64 - 1):
        scalar = SplitMix64(seed)
        vector = SplitMix64(seed)
        want = [scalar.next_u64() for _ in range(257)]
        got = vector.next_block(257)
        assert [int(v) for v in got] == want
        assert vector.state == scalar.state


def test_blocks_continue_the_stream():
    one_shot = SplitMix64(7).next_block(40)
    split = SplitMix64(7)
    pieces = [int(v) for v in split.next_block(13)]
    pieces += [split.next_u64() for _ in range(2)]
    pieces += [int(v) for v in split.next_block(25)]
    assert pieces == [int(v) for v in one_shot]


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64 + 5).state == SplitMix64(5).state
