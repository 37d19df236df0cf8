"""Byte-identity of the command line on a fixed corpus of commands.

Each command runs in-process through ``cli.main`` with a fresh
``--cache-dir``.  Its exit code, the sha1 of its stdout and of its stderr,
the number of files it leaves in the cache directory and a digest of them
(the sorted file names and contents) are pinned.  A change meant to keep
every output as it is, such as a deletion pass, must leave all of them
unchanged; a change that alters one names it and updates its row here.
"""

import hashlib

import pytest

from charkit import cli
from charkit.cli import main
from charkit.csmodel import build_a
from charkit.lie_core import FUNDAMENTAL_WEIGHTS

EMPTY = hashlib.sha1(b"").hexdigest()
# The character cache as ``build_a`` leaves it: the 107 bootstrap characters.
BOOTSTRAP = (107, "37cd960aa389fe64ec6c03e6aa3376ab39202a6b")

# (arguments after --cache-dir, exit code, stdout sha1, stderr sha1,
#  (cache files, cache digest))
CORPUS = [
    ("character 0000002", 0,
     "19e062064f9f63a6ff5ab479fe191592d1ce473d", EMPTY, BOOTSTRAP),
    ("character --method both 1000001", 0,
     "3b85b93befbf34a6fc24c87eb87f38074c0451d7", EMPTY, BOOTSTRAP),
    ("character 0,0,0,0,0,0,12", 0,
     "1ad1ab01a1affb15ce21a26b857497c367234add", EMPTY,
     (108, "0460cb17e53e400bca9eddd492697f7450a38249")),
    # The first row on the level solve (13 081 weights).
    ("character 0,0,0,0,0,0,24", 0,
     "f2ce2651151ff5ad264635982ec658eb5aa9a35b", EMPTY,
     (108, "8b6402db93261fbc93cf5f2335d608043170e439")),
    ("--format json character 0000003", 0,
     "d42e5a275ba99d349c6b8b798957ca4d3160365e", EMPTY, BOOTSTRAP),
    ("cg 0000001 0000001", 0,
     "a67f563e129bde44be9e8c9484e28d3b4b828666", EMPTY, BOOTSTRAP),
    ("cg 0000012 0010001", 0,
     "7a85873ba94cfe625507208492aa88ddc5453934", EMPTY, BOOTSTRAP),
    ("--format json cg 0000012 0010001", 0,
     "d81744ac75e474350af5fec32c2a13a1fc67ba16", EMPTY, BOOTSTRAP),
    # A factor lambda_7: the series is checked against the minuscule rule.
    ("cg 1000100 0000001", 0,
     "287010c4cf6539546d1f13cae6137ff509808e0a", EMPTY, BOOTSTRAP),
    ("--format json cg 0000001 0,0,0,0,0,0,12", 0,
     "aa9a6ae20549bcc2170fd139abba0fbf3a026ccb", EMPTY,
     (108, "0460cb17e53e400bca9eddd492697f7450a38249")),
    ("monomial-cg 0003000", 0,
     "4d259b60eeb98e2911759409f775aeb81a8999f5", EMPTY, BOOTSTRAP),
    ("--format json monomial-cg 0001001", 0,
     "15ac2d003465ea512870479bf82ca0f20ff9f04e", EMPTY, BOOTSTRAP),
    ("series-family 7 3", 0,
     "9bba2e8873ea35fced232112b2955be3649409bb", EMPTY, BOOTSTRAP),
    ("--format json series-family 7 3", 0,
     "f7998cc1925f8e17d4b7206caaa9ff4edd0a2d64", EMPTY, BOOTSTRAP),
    ("series-family 4 2", 0,
     "b0a65e3a4f369f4d94d6dcb6be7413264cc40721", EMPTY, BOOTSTRAP),
    # One row of every other family; the factor n lambda_k is written.
    ("series-family 1 5", 0,
     "74d37e6eddc5541920aad6f7d1d974b0f894b969", EMPTY,
     (108, "34d6b81107b882e11ff39a8b9617c4b667eeaf0d")),
    ("--format json series-family 1 5", 0,
     "f3d2c4e375e2ae47d01a327161f14eadf649465b", EMPTY,
     (108, "34d6b81107b882e11ff39a8b9617c4b667eeaf0d")),
    ("series-family 2 4", 0,
     "5f6ea4e088c17ad15c6f452d4a58bd6e8f6e7e9f", EMPTY,
     (108, "8a6d6e27f7b4b8ff616f5e36d6bba43316095ba5")),
    ("series-family 3 3", 0,
     "650ab3e7e6f0dad80bbc3a6e7ef603ca27e9dc82", EMPTY,
     (108, "590784cc9a933b575130248236aa57de888d48fd")),
    ("series-family 5 3", 0,
     "c0e7690c2d304a41e2b658103847ba54443e8a86", EMPTY,
     (108, "9e2516441001e6d4d8b1b52d8f5324fd18a045f0")),
    ("series-family 6 4", 0,
     "bd80c4c492f2c9e14a16277184348efe7b38b39d", EMPTY,
     (108, "29b88205e3120aa7a513876abfeb48ad53636cbc")),
    ("verify all", 0,
     "2c6fbbc77a51e7df838d9f8881cbc69079062368", EMPTY,
     (142, "c5610d45650479f34c1f612577b7ca41a3832146")),
    ("--format json verify all", 0,
     "7ec7d80de4d65658a77fec4c076b38242ab1065b", EMPTY,
     (142, "c5610d45650479f34c1f612577b7ca41a3832146")),
    ("character 0,0,0,0,0,0,252", 2, EMPTY,
     "1febdda1d73a50083e51863bd13dc861f693124e", BOOTSTRAP),
    ("character 0,0,0,0,0,3,251", 2, EMPTY,
     "0bdd5a42747db9c38f0353b7a179fb393b3aa573", BOOTSTRAP),
    ("cg 0,0,0,0,0,3,0 0,0,0,0,0,0,251", 2, EMPTY,
     "0bdd5a42747db9c38f0353b7a179fb393b3aa573", BOOTSTRAP),
    ("monomial-cg 0,0,0,0,0,0,252", 2, EMPTY,
     "1febdda1d73a50083e51863bd13dc861f693124e", BOOTSTRAP),
    ("dim 0001000 0,0,0,0,0,0,24", 0,
     "37696632e5173e9956ca367d30cdd36a1b209cc4", EMPTY, (0, EMPTY)),
    ("--format json dim 0001000 0,0,0,0,0,0,24", 0,
     "f44545c71f37964caa36b407369fe4121543c69e", EMPTY, (0, EMPTY)),
    # Argument errors are refused before the operator is built.
    ("series-family 0 2", 2, EMPTY,
     "f4ef6498c61cb9ffb69491b20f2319d0ba1f96fc", (0, EMPTY)),
    ("verify all --trials 0", 2, EMPTY,
     "48bc1851c944f9a8daedea7d487d11213e3ce903", (0, EMPTY)),
]


def cache_digest(cache):
    """(number of files, sha1 of their sorted names and contents) of a
    cache directory, (0, sha1 of nothing) when it was never made."""
    names = sorted(p.name for p in cache.iterdir()) if cache.is_dir() else []
    digest = hashlib.sha1()
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update((cache / name).read_bytes() + b"\0")
    return len(names), digest.hexdigest()


@pytest.mark.parametrize("args, code, out_sha1, err_sha1, cache", CORPUS,
                         ids=[row[0] for row in CORPUS])
def test_corpus_command_is_byte_identical(tmp_path, capsys, args, code,
                                          out_sha1, err_sha1, cache):
    path = tmp_path / "cache"
    got = main(["--cache-dir", str(path), *args.split()])
    out = capsys.readouterr()
    assert got == code
    assert hashlib.sha1(out.out.encode()).hexdigest() == out_sha1, out.out
    assert hashlib.sha1(out.err.encode()).hexdigest() == err_sha1, out.err
    assert cache_digest(path) == cache


# The failing paths of the three commands that compare a computed series
# with a reference, forced by tampering with the reference: (arguments after
# --no-cache, tampered reference, exit code, stdout sha1, stderr sha1).
FAIL_PATHS = [
    ("series-family 7 2", "family", 1,
     "2810ced492ff64a152558af813055ec4504bf8bd", EMPTY),
    ("--format json series-family 7 2", "family", 1,
     "a6a34caf784873546dc63cc710738a41433487f8", EMPTY),
    ("cg 0000001 0000002", "family", 1, EMPTY,
     "4f91b37c4321efb27b81a22fcc99a93bd42ac50c"),
    ("--format json cg 0000001 0000002", "family", 1, EMPTY,
     "4f91b37c4321efb27b81a22fcc99a93bd42ac50c"),
    ("verify quadratic", "quadratic", 1,
     "1d66d50160417192b8503f278c5a6e281c84726d", EMPTY),
    ("--format json verify quadratic", "quadratic", 1,
     "79e41697e0652547706a9c10b463928231530aef", EMPTY),
]


def tamper(monkeypatch, which):
    """Change one reference the command compares against: the row
    m - lambda_7 of the minuscule rule's series for m moved to m, or two
    multiplicities of the fixture series cg 7 7 once the operator is built
    from it."""
    if which == "family":
        rule = cli.minuscule_series

        def moved_row(m):
            series = rule(m)
            del series[tuple(a - b for a, b in zip(m, FUNDAMENTAL_WEIGHTS[6]))]
            series[m] = 1
            return series

        monkeypatch.setattr(cli, "minuscule_series", moved_row)
        return

    def build_then_tamper(corpus):
        built = build_a(corpus)
        series = dict(corpus.series[(7, 7)])
        series[(0, 0, 0, 0, 0, 0, 0)] = 2
        del series[(1, 0, 0, 0, 0, 0, 0)]
        corpus.series[(7, 7)] = series
        return built

    monkeypatch.setattr(cli, "build_a", build_then_tamper)


@pytest.mark.parametrize("args, which, code, out_sha1, err_sha1", FAIL_PATHS,
                         ids=[row[0] for row in FAIL_PATHS])
def test_fail_path_is_byte_identical(monkeypatch, capsys, args, which, code,
                                     out_sha1, err_sha1):
    tamper(monkeypatch, which)
    got = main(["--no-cache", *args.split()])
    out = capsys.readouterr()
    assert got == code
    assert hashlib.sha1(out.out.encode()).hexdigest() == out_sha1, out.out
    assert hashlib.sha1(out.err.encode()).hexdigest() == err_sha1, out.err
