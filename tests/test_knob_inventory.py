"""Environment-knob inventory: every ``REPRO_*`` variable is pinned here.

Each knob is a mode the code must keep working and the docs must
explain, so the set may only shrink.  A new knob means editing
:data:`KNOBS` below, in plain sight of review, and documenting it in
``README.md`` or ``docs/``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Every ``REPRO_*`` string literal under ``src/``.  Only removals are
#: allowed: drop a name when its knob goes, never add one silently.
KNOBS = frozenset({
    "REPRO_CHECKPOINT_DIR",
    "REPRO_CHECKPOINT_EVERY",
    "REPRO_CKPT_RETAIN",
    "REPRO_FAULT_PLAN",
    "REPRO_KERNEL_IMPL",
    "REPRO_NATIVE_BUILD_TIMEOUT_S",
    "REPRO_NATIVE_DIR",
    "REPRO_SHARD_RESIDENT_MB",
    "REPRO_STORE_DIR",
    "REPRO_STORE_MAX_BYTES",
    "REPRO_STORE_VERIFY",
    "REPRO_TMP_GRACE_S",
})

_LITERAL = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")


def _knobs_named_in(tree):
    found = set()
    for path in (ROOT / tree).rglob("*.py"):
        found.update(_LITERAL.findall(path.read_text(encoding="utf-8")))
    return found


def test_knob_set_is_pinned():
    assert len(KNOBS) <= 12  # the ceiling only ever comes down
    assert _knobs_named_in("src") == KNOBS


def test_tests_set_only_live_knobs():
    """A test that sets a variable the program no longer reads checks
    nothing; such a case goes with its knob."""
    assert _knobs_named_in("tests") <= KNOBS


def test_every_knob_is_documented():
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").rglob("*.md"))]
    text = "\n".join(p.read_text(encoding="utf-8") for p in docs)
    missing = sorted(k for k in KNOBS if not re.search(rf"\b{k}\b", text))
    assert not missing, f"undocumented knobs: {missing}"
