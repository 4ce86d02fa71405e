"""Pinned output bytes of ``memarray analyze``.

The counts CSVs are written from fixed integer formulas (no random draws),
so the sha256 of every analyze output is a constant of the analysis code.
Zero noise totals, zero signal totals and a zero scan diagonal are included
on purpose: they exercise the ``inf`` and ``nan`` branches of the writers.
"""

import hashlib

from memarray.cli import main
from memarray.defaults import default_plan_path

HEADER = "run_kind,input_cell,output_cell,temporal_index,total_counts,n_trials\n"
CELLS = range(1, 11)


def write_storage_pair(tmp_path):
    """Signal and noise counts of the shipped 60mode plan (10 cells x 6)."""
    sig = tmp_path / "counts_signal.csv"
    bkg = tmp_path / "counts_noise.csv"
    sig.write_text(HEADER + "".join(
        f"signal,{c},{c},{k},{20 + (7 * c + 3 * k) % 13},14227\n"
        for c in CELLS for k in range(1, 7)))
    bkg.write_text(HEADER + "".join(
        f"noise,{c},{c},{k},{(c * k) % 4},14227\n"
        for c in CELLS for k in range(1, 7)))
    return sig, bkg


def write_reversed_250mode(tmp_path):
    """The shipped 250mode plan with its cells filled in reverse order, and
    a signal/noise pair for it (10 cells x 25) with zero totals of both
    kinds: sorted mode order and plan order then differ everywhere."""
    plan = tmp_path / "plan_reversed.ini"
    plan.write_text(default_plan_path("250mode").read_text().replace(
        "cell_order = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
        "cell_order = 10, 9, 8, 7, 6, 5, 4, 3, 2, 1"))
    sig = tmp_path / "counts_signal.csv"
    bkg = tmp_path / "counts_noise.csv"
    sig.write_text(HEADER + "".join(
        f"signal,{c},{c},{k},{(11 * c + 5 * k) % 23},14227\n"
        for c in CELLS for k in range(1, 26)))
    bkg.write_text(HEADER + "".join(
        f"noise,{c},{c},{k},{(c + 2 * k) % 5},20000\n"
        for c in CELLS for k in range(1, 26)))
    return plan, sig, bkg


def write_scan_pair(tmp_path):
    """A 10x10 scan (cell 7's diagonal empty) and its no-input run."""
    def total(i, j):
        if i == j:
            return 0 if i == 7 else 300 + 17 * i
        return (3 * i + 5 * j) % 9
    scan = tmp_path / "counts_crosstalk.csv"
    bkg = tmp_path / "counts_noise.csv"
    scan.write_text(HEADER + "".join(
        f"crosstalk,{i},{j},1,{total(i, j)},20000\n"
        for i in CELLS for j in CELLS))
    bkg.write_text(HEADER + "".join(
        f"noise,{c},{c},1,{c % 3},20000\n" for c in CELLS))
    return scan, bkg


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_storage_analyze_bytes(tmp_path):
    sig, bkg = write_storage_pair(tmp_path)
    out = tmp_path / "stats"
    assert main(["analyze", "--signal", str(sig), "--noise", str(bkg),
                 "--plan", "60mode", "--device", "10cell",
                 "--out-dir", str(out)]) == 0
    assert {name: sha256(out / name) for name in
            ("mode_stats.csv", "cumulative.csv", "projections.csv")} == {
        "mode_stats.csv":
            "81e48c21c7842c3f801109fbd8bfdf04b78d0e7e3a56b2cdc52931710eab2569",
        "cumulative.csv":
            "8cee0441b837ee27eaf546b7d71fc4a050cede46b7d820f7c54d4e47c306beb3",
        "projections.csv":
            "076de59d25990b76d7f502b93f6409e9f0da273ca38a10bd44fce831cffcc34e",
    }
    # Cells 4 and 8 pool zero noise: their errors are inf, never nan.
    rows = (out / "projections.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows if "inf" in row] == ["4", "8"]
    assert all(field != "nan" for row in rows for field in row.split(","))


def test_storage_analyze_summary(tmp_path, capsys):
    # The pair pools 1553 signal and 67 noise counts, each over 14227
    # trials: the printed SNR is their ratio, zero-noise modes included.
    sig, bkg = write_storage_pair(tmp_path)
    assert main(["analyze", "--signal", str(sig), "--noise", str(bkg),
                 "--plan", "60mode", "--device", "10cell",
                 "--out-dir", str(tmp_path / "stats")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "60 modes: cumulative signal 0.1092, cumulative noise 0.004709, "
        "pooled SNR 23.2")


def test_reversed_250mode_analyze_bytes(tmp_path):
    # mode_stats.csv is in sorted mode order; cumulative.csv and
    # projections.csv follow the plan, here cell 10 first.
    plan, sig, bkg = write_reversed_250mode(tmp_path)
    out = tmp_path / "stats"
    assert main(["analyze", "--signal", str(sig), "--noise", str(bkg),
                 "--plan", str(plan), "--device", "10cell",
                 "--out-dir", str(out)]) == 0
    assert {name: sha256(out / name) for name in
            ("mode_stats.csv", "cumulative.csv", "projections.csv")} == {
        "mode_stats.csv":
            "40af04144d970e01554c6e317373a2433f4bc016b25863cf4220bf56a1551777",
        "cumulative.csv":
            "b953826ef1e4e1f14d0fe742a744b128eb68c93e52d50293dc06772a5cf21f38",
        "projections.csv":
            "dc011823842c0219e173918d657d94cf863e72aec61a1eef7ec4d81548d88bcf",
    }
    rows = [row.split(",") for row in
            (out / "mode_stats.csv").read_text().splitlines()[1:]]
    assert [row[:2] for row in rows[:2]] == [["1", "1"], ["1", "2"]]
    # A zero signal total over nonzero noise (error sa/b), and zero noise.
    assert any(row[2] == "0" and row[4] != "0" for row in rows)
    assert any(row[4] == "0" and row[6] == "inf" for row in rows)
    cumulative = (out / "cumulative.csv").read_text().splitlines()
    assert cumulative[1].startswith("1,10,1,")
    assert [row.split(",")[0] for row in
            (out / "projections.csv").read_text().splitlines()[1:3]] == [
        "10", "9"]


def test_scan_analyze_bytes(tmp_path):
    scan, bkg = write_scan_pair(tmp_path)
    out = tmp_path / "xt"
    assert main(["analyze", "--signal", str(scan), "--noise", str(bkg),
                 "--out-dir", str(out)]) == 0
    assert {name: sha256(out / name) for name in
            ("crosstalk_matrix.csv", "crosstalk_matrix_err.csv",
             "crosstalk_summary.csv")} == {
        "crosstalk_matrix.csv":
            "365a7f938bdf489734b38c78289b29a556c211dc0aac1e4eb318d54a87f4c816",
        "crosstalk_matrix_err.csv":
            "af766b69e5dc304fa0ebe1ebb06dd9d2abefe79c36c07df08a8638970e234a8e",
        "crosstalk_summary.csv":
            "e5535cb1d8868f05ace3abaf1995090491657a46118a23c7875fec1fb7d9c0ec",
    }
