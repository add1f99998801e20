import base64
import logging
import multiprocessing

from matchgame.cache import SOLVER_VERSION, CacheEntry, cache_get, cache_put


def test_round_trip(tmp_path):
    path = str(tmp_path / "values.cache")
    entry = CacheEntry(b"cert-bytes", 3, 4)
    cache_put(path, entry)
    assert cache_get(path, b"cert-bytes") == entry
    assert cache_get(path, b"other") is None


def test_missing_file_is_a_miss(tmp_path):
    assert cache_get(str(tmp_path / "never-written"), b"x") is None


def test_last_entry_wins(tmp_path):
    path = str(tmp_path / "values.cache")
    cache_put(path, CacheEntry(b"c", 1, 1))
    cache_put(path, CacheEntry(b"c", 2, 2))
    hit = cache_get(path, b"c")
    assert hit is not None and (hit.max_value, hit.min_value) == (2, 2)
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 2


def test_version_mismatch_is_a_miss(tmp_path):
    path = str(tmp_path / "values.cache")
    cache_put(path, CacheEntry(b"c", 1, 1, version="0"))
    assert cache_get(path, b"c") is None
    cache_put(path, CacheEntry(b"c", 2, 2))
    hit = cache_get(path, b"c")
    assert hit is not None and hit.version == SOLVER_VERSION


def test_corrupt_lines_skipped_with_warning(tmp_path, caplog):
    path = str(tmp_path / "values.cache")
    good = f"{base64.b64encode(b'c').decode()} 5 6 {SOLVER_VERSION}"
    with open(path, "w") as fh:
        fh.write("not base64! 1 2 3\n")
        fh.write("too few fields\n")
        fh.write(f"{base64.b64encode(b'x').decode()} NaN 2 {SOLVER_VERSION}\n")
        fh.write(good + "\n")
    with caplog.at_level(logging.WARNING, logger="matchgame.cache"):
        hit = cache_get(path, b"c")
    assert hit == CacheEntry(b"c", 5, 6)
    skipped = [r for r in caplog.records if "skipped" in r.getMessage()]
    assert len(skipped) == 3


def test_put_preserves_other_entries(tmp_path):
    path = str(tmp_path / "values.cache")
    cache_put(path, CacheEntry(b"a", 1, 2))
    cache_put(path, CacheEntry(b"b", 3, 3))
    assert cache_get(path, b"a") == CacheEntry(b"a", 1, 2)
    assert cache_get(path, b"b") == CacheEntry(b"b", 3, 3)


def _write_many(path, writer, count, start):
    start.wait()
    for i in range(count):
        cache_put(path, CacheEntry(f"w{writer}-{i}".encode(), i % 5, i % 7))


def test_concurrent_writers_keep_every_entry(tmp_path):
    path = str(tmp_path / "values.cache")
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(4, timeout=60)  # all writers begin together
    procs = [ctx.Process(target=_write_many, args=(path, w, 50, start)) for w in range(4)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
        assert p.exitcode == 0
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 200
    for w in range(4):
        for i in range(50):
            cert = f"w{w}-{i}".encode()
            assert cache_get(path, cert) == CacheEntry(cert, i % 5, i % 7)


def test_truncated_last_line_does_not_corrupt_next_entry(tmp_path, caplog):
    path = str(tmp_path / "values.cache")
    cache_put(path, CacheEntry(b"a", 1, 2))
    with open(path, "a") as fh:
        fh.write(base64.b64encode(b"killed").decode() + " 3")  # writer died mid-line
    cache_put(path, CacheEntry(b"b", 3, 3))
    with caplog.at_level(logging.WARNING, logger="matchgame.cache"):
        assert cache_get(path, b"b") == CacheEntry(b"b", 3, 3)
        assert cache_get(path, b"a") == CacheEntry(b"a", 1, 2)
        assert cache_get(path, b"killed") is None
    assert any("skipped" in r.getMessage() for r in caplog.records)
