"""The streaming writer behind `ovm-dilate --output`.

`cli._json_chunks` must produce exactly the text of
json.dumps(..., sort_keys=True, indent=2, allow_nan=False) on the same
document with every array replaced by its nested lists and every
partition by its triple's f_atoms, write nothing on a non-finite entry,
and never hold the triple as Python lists, as a dense F stack or F's text.
"""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilationkit import cli
from dilationkit.cli import (
    _Partition, _encode_array, _json_chunks, _write_json_atomic, load_ovm, main
)
from dilationkit.dilation import DilationTriple, build_block_dilation, naimark_dilate

EDGE_FLOATS = [-0.0, 0.0, 1.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
reals = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


def listed(x):
    """Nested lists of a tolist(), complex entries as [re, im]."""
    if isinstance(x, list):
        return [listed(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    return x


@st.composite
def arrays(draw):
    """Real or complex arrays of 1 to 3 dimensions (some empty), their
    entries drawn from a pool of at most four floats so rows repeat."""
    shape = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    pool = draw(st.lists(reals, min_size=1, max_size=4))
    size = int(np.prod(shape))
    parts = 2 if draw(st.booleans()) else 1
    picks = draw(st.lists(st.sampled_from(pool), min_size=parts * size, max_size=parts * size))
    values = np.array(picks, dtype=float).reshape((parts,) + shape)
    if parts == 1:
        return values[0]
    # assigned, not added: 1j * x turns -0.0 into 0.0 and 1j * 1e308 overflows
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = values
    return out


leaves = st.one_of(
    arrays(),
    st.lists(st.integers(0, 10), max_size=4),
    st.integers(-5, 5),
    reals,
    st.none(),
    st.booleans(),
    st.text(max_size=2),
)
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=6,
)


def as_lists(obj):
    if isinstance(obj, np.ndarray):
        return listed(obj.tolist())
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_lists(value) for value in obj]
    return obj


def written(doc) -> str:
    return "".join(_json_chunks(doc))


def expected(doc) -> str:
    return json.dumps(as_lists(doc), sort_keys=True, indent=2, allow_nan=False)


def traced_peak(chunks) -> int:
    """tracemalloc's peak while the chunks are consumed."""
    tracemalloc.start()
    try:
        for _ in chunks:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSameText:
    @settings(max_examples=300, deadline=None)
    @given(arrays(), documents)
    def test_matches_json_dumps(self, arr, rest):
        # the same array at four nesting levels, next to an empty list,
        # an empty dict and an int list such as block_ranks
        doc = {
            "f_atoms": arr,
            "nested": [[arr], arr, {"again": [[[arr]]]}],
            "block_ranks": [8, 8, 1],
            "empty": [],
            "none": {},
            "rest": rest,
        }
        assert written(doc) == expected(doc)
        assert written(rest) == expected(rest)

    @settings(max_examples=100, deadline=None)
    @given(arrays())
    def test_encode_array_is_the_written_form(self, arr):
        assert _encode_array(arr) == listed(arr.tolist())
        assert written(arr) == expected(arr)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6), st.integers(0, 3))
    @example([5], 1)  # a single atom: F = I
    @example([0, 0, 0], 2)  # T = 0: every atom is []
    @example([2, 0, 3], 0)
    # T = 64, zero-rank atoms first, between and last
    @example([0, 32, 0, 32, 0], 0)
    @example([0, 32, 0, 32, 0], 1)
    @example([0, 32, 0, 32, 0], 2)
    @example([0, 32, 0, 32, 0], 3)
    def test_partition_is_written_as_f_atoms(self, ranks, depth):
        total = sum(ranks)
        triple = DilationTriple(np.zeros((1, total)), np.zeros((total, 1)), ranks)
        doc, reference = _Partition(ranks), triple.f_atoms.tolist()
        # the rows are formatted at the level where they sit, so nest
        # the partition in dicts and lists to shift that level
        for level in range(depth):
            if level % 2:
                doc, reference = [doc], [reference]
            else:
                doc, reference = {"f_atoms": doc}, {"f_atoms": reference}
        assert written(doc) == json.dumps(reference, indent=2)


class TestPartitionMemory:
    def test_block_sampled_f_stays_below_64_kib(self):
        # T = 192: a table of formatted rows would be about 0.5 MB of text
        assert traced_peak(_json_chunks({"f_atoms": _Partition((8,) * 24)})) < 64 << 10

    def test_first_chunks_at_t_2048_stay_below_1_mib(self):
        # 256 atoms of rank 8: the first chunks come before any T x T table
        chunks = _json_chunks(_Partition((8,) * 256))
        assert traced_peak(chunk for _, chunk in zip(range(10), chunks)) < 1 << 20


class TestAtomicFailure:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_writes_nothing(self, tmp_path, bad):
        target = tmp_path / "triple.json"
        left = np.eye(2, dtype=type(bad))
        left[1, 0] = bad
        doc = {"left": left, "right": np.eye(2), "f_atoms": np.eye(2)[None], "block_ranks": [2]}
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json_atomic(str(target), doc)
        assert list(tmp_path.iterdir()) == []

    def test_cli_exits_one_without_traceback(self, capsys, tmp_path, monkeypatch):
        # the nan goes into `left` as the write receives it, so the
        # dilation and its checks see finite arrays and only the write fails
        write = cli._write_json_atomic

        def write_with_nan(path, doc):
            doc["left"] = doc["left"].copy()
            doc["left"][0, 0] = np.nan
            write(path, doc)

        monkeypatch.setattr(cli, "_write_json_atomic", write_with_nan)
        doc = {"dim_in": 1, "dim_out": 1, "atoms": [[[0.5]], [[0.5]]]}
        path = tmp_path / "ovm.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        target = tmp_path / "triple.json"
        code = main(["ovm-dilate", str(path), "--block", "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: Out of range float values are not JSON compliant\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ovm.json"]


@pytest.mark.parametrize(
    "umask, replaced, mode",
    [(0o022, None, 0o644), (0o002, None, 0o664), (0o077, None, 0o600),
     (0o022, 0o600, 0o600), (0o022, 0o640, 0o640)],
    ids=["new-022", "new-002", "new-077", "replaced-600", "replaced-640"],
)
def test_written_file_gets_the_mode_open_would_give(tmp_path, umask, replaced, mode):
    # a new file gets 0666 less the umask, a replaced one keeps its mode
    target = tmp_path / "triple.json"
    if replaced is not None:
        target.write_text("old", encoding="utf-8")
        target.chmod(replaced)
    old = os.umask(umask)
    try:
        _write_json_atomic(str(target), {"block_ranks": [1]})
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == mode
    assert target.read_text(encoding="utf-8") == '{\n  "block_ranks": [\n    1\n  ]\n}\n'


@pytest.mark.parametrize("existing", [True, False], ids=["existing-640", "dangling"])
def test_symlinked_output_writes_through_the_link(tmp_path, existing):
    # as with open(link, "w"): the link stays a link and its target gets the
    # triple, keeping its mode or, when new, 0666 less the umask
    path, _ = ovm_file(tmp_path, WITH_ZERO_ATOM)
    target, link = tmp_path / "t.json", tmp_path / "link.json"
    if existing:
        target.write_text("old", encoding="utf-8")
        target.chmod(0o640)
    link.symlink_to(target.name)
    old = os.umask(0o022)
    try:
        assert main(["ovm-dilate", str(path), "--block", "--output", str(link)]) == 0
    finally:
        os.umask(old)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.stat().st_mode & 0o777 == (0o640 if existing else 0o644)
    written = json.loads(target.read_text(encoding="utf-8"))
    assert written["block_ranks"] == [2, 0, 1]
    assert sorted(os.listdir(tmp_path)) == ["link.json", "ovm.json", "t.json"]


def ovm_file(tmp_path, atoms):
    """Write atoms (reals or [re, im] pairs) as an ovm input file."""
    atoms = np.asarray(atoms)
    path = tmp_path / "ovm.json"
    doc = {"dim_in": atoms.shape[2], "dim_out": atoms.shape[1], "atoms": listed(atoms.tolist())}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path, doc


# a rank-one complex projection P = v v* with v = (1, i) / sqrt(2), split in
# halves, and I - P: a POVM on C^2 whose entries are exact in binary
P = np.array([[0.5, -0.5j], [0.5j, 0.5]])
COMPLEX_POVM = [P / 2, P / 2, np.eye(2) - P]
WITH_ZERO_ATOM = [[[1.0, 2.0], [0.5, -1.0]], [[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]]


@pytest.mark.parametrize("mode, atoms", [("block", WITH_ZERO_ATOM), ("naimark", COMPLEX_POVM)])
def test_written_triple_is_the_library_triple(tmp_path, mode, atoms):
    path, doc = ovm_file(tmp_path, atoms)
    target = tmp_path / "triple.json"
    assert main(["ovm-dilate", str(path), "--" + mode, "--output", str(target)]) == 0
    ovm = load_ovm(doc)
    triple = naimark_dilate(ovm).as_triple() if mode == "naimark" else build_block_dilation(ovm)
    assert triple.total_dim > 0
    assert mode == "naimark" or 0 in triple.block_ranks
    reference = {
        "left": listed(triple.left.tolist()),
        "right": listed(triple.right.tolist()),
        "f_atoms": triple.f_atoms.tolist(),
        "block_ranks": list(triple.block_ranks),
    }
    expected_text = json.dumps(reference, sort_keys=True, indent=2) + "\n"
    assert target.read_text(encoding="utf-8") == expected_text


def test_block_triple_write_stays_below_four_mib(tmp_path):
    # 24 atoms of 8 x 8 give T = 192: a dense F stack alone would be 7 MiB
    # of float64, and the text of F is 11.6 MB, so neither may be held
    rng = np.random.default_rng(0)
    atoms = []
    for _ in range(24):
        u, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        atoms.append((u * rng.uniform(0.5, 1.5, 8)) @ v.T)
    path, _ = ovm_file(tmp_path, atoms)
    target = tmp_path / "triple.json"
    tracemalloc.start()
    try:
        code = main(["ovm-dilate", str(path), "--block", "--output", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(target.read_text(encoding="utf-8"))["f_atoms"]) == 24
    assert peak < 4 << 20
