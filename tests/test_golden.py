"""Seeded CLI outputs stay byte-identical.

Each entry is a command and the digest of its exit code, its `--out` bytes,
its stdout and its stderr (sha256 of the four sha256 digests, in that
order).  A change that alters any of them must update the digest here and
say why in CHANGES.md.
"""

import hashlib

import pytest

from mulmetric import cli

GOLDEN = [
    ("solve --problem paper-scalar",
     "368e40011c5fc2c325069fcb7247dca0e51059c232da514f81faa7f90e7038b3"),
    ("solve --problem paper-segment",
     "01449c429e006185ae9e83d5ceb6d039ce150751eb43ed2e3129879500dfd8b9"),
    ("solve --problem sqrt-toy",
     "9481b30c464b1cd6c45cca9910d5f9e9112290751e2ce12a15edfa895b449eeb"),
    ("solve --problem quarter-kannan",
     "e793a4a7c26d638a599813e7e75675a140842cb2e282d7a5febe3ad46324b830"),
    ("solve --problem quarter-chatterjea",
     "b86e624a746c9f67f5d799f6c70d21746502f8a3319383b5c57e7aca0704d1db"),
    ("verify --problem paper-scalar --samples 500",
     "b1605c7cf6ccffc4f2b9c06b15ed7288ab83feb266145d2195ae086890462ac5"),
    ("verify --problem paper-segment --samples 500",
     "f227d7065e12f3381b49ede3153abb5eaf31ad2e0f520869268c790f4831f583"),
    ("verify --problem sqrt-toy --samples 500",
     "f227d7065e12f3381b49ede3153abb5eaf31ad2e0f520869268c790f4831f583"),
    ("verify --problem quarter-kannan --samples 500",
     "635b0a028a13db47878b6c9324cd50b26f8880a754e578f60cd029cf702ffd59"),
    ("verify --problem quarter-chatterjea --samples 500",
     "1224461b09b542c17bc5caf702f9e6e7e19b63eb6801ccb152044ba89fca06de"),
    ("estimate --problem paper-scalar --verbose",
     "630d2baae536a61c05e2bf1a9448f2ebcf966968092bf7604bd3d0cc462565a8"),
    ("estimate --problem paper-segment --verbose",
     "bd5d1185813c818e5407e3cd65ed39b400d57ce32846aa7c0a72266ccc744bbf"),
    ("estimate --problem sqrt-toy --verbose",
     "20af4f946d8279bbd57264b70c1941d7cee6368737787158bc0390e4c209e857"),
    ("estimate --problem quarter-kannan --verbose",
     "7a438885fb523d6124e6abee6b47f6ab37d5aa01b06e588103901cefba172334"),
    ("estimate --problem quarter-chatterjea --verbose",
     "de9b8234279c9fa1d0f404b48599000566bd2f2d1d9bc5ecd467c318ae456efa"),
    ("solve --problem sqrt-toy --x0 1",
     "bd455d15ba57f638a0b4364f2b37ab96ec1dac7265616260e015f660245fca2d"),
    ("solve --problem paper-scalar --max-iter 3",
     "3ff0ab28b6d39efba38a5079ee485f6b1934118f80b5316a744841db46ee24a5"),
    ("solve --expr x/2+1 --space real-line-exp --lambda 0 --x0 0",
     "00e78f927347b402b8a56f3ed9f42377128a0583e1afbcb35fd1515ece99b948"),
    # func-sup points: three sampled 1024-value functions and their sup distances
    ("verify --expr x --space func-sup --samples 3 --seed 5",
     "3ec9b60ce4f15dbeed0c00ba8cfaa1aeae9cd9b8431b1e10d251279b42122922"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_seeded_output_is_unchanged(command, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = cli.main([*command.split(), "--out", "out.json"])
    out = tmp_path / "out.json"
    data = out.read_bytes() if out.exists() else b""
    captured = capsys.readouterr()
    h = hashlib.sha256()
    for part in (str(rc).encode(), data, captured.out.encode(), captured.err.encode()):
        h.update(hashlib.sha256(part).digest())
    assert h.hexdigest() == digest
