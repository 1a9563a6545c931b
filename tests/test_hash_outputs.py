"""The program's observable outputs hash as tools/hash_outputs.txt records.

The file is the -v output of tools/hash_outputs.py: one line per section,
then the overall hash.  A failure names every section whose bytes moved."""

from pathlib import Path

import hash_outputs
from hash_outputs import overall, sections

COMMITTED = Path(hash_outputs.__file__).with_suffix(".txt")


def test_outputs_hash_as_committed(tmp_path):
    *lines, want_overall = COMMITTED.read_text().split("\n")[:-1]
    want = dict(line.split() for line in lines)
    got = sections(tmp_path)
    differ = [k for k in {**want, **got} if want.get(k) != got.get(k)]
    assert not differ, "sections unlike %s: %s" % (COMMITTED.name,
                                                   ", ".join(differ))
    assert overall(got) == want_overall
