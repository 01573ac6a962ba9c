"""Surface checks over the repository's files: source guards, CI, docs.

Every check here reads files and imports nothing from ``repro``, so the
module runs in well under two seconds.

* **Guards.**  Each row of ``GUARDS`` names a pattern that must not
  appear in the source: a deleted second code path, a knob, a helper
  the design retired.  A guard is clean when none of its rows matches.
  Patterns are grep patterns (``E`` extended, ``G`` basic, ``F``
  fixed) translated to Python; every row carries a sample line its
  pattern must match, and every path it guards must exist, so a
  renamed file or a broken pattern fails instead of passing vacuously.
  A ``file.py::Class`` path guards only that class's source.
* **CI.**  Every script, test path and ``repro`` subcommand that
  ``.github/workflows/ci.yml`` runs exists, and every committed
  ``.github/scripts`` program is run by it.
* **Docs.**  Every ``DESIGN.md §N`` citation names a ``## N.`` heading.
"""

from __future__ import annotations

import ast
import os
import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CI = ROOT / ".github" / "workflows" / "ci.yml"
SCRIPTS = ROOT / ".github" / "scripts"

#: (guard, paths, grep flavour, pattern, a line the pattern must match).
GUARDS = [
    ("The crypto layer never sees a filtered table",
     ["src/repro/core"], "E", r"_dummy_label|invalid_labels|\.ends\b",
     "        self._dummy_label = None"),
    ("The crypto layer never sees a filtered table",
     ["src/repro/gc/garble.py"], "G", r"dummy",
     "    dummy = gate_label(0)"),
    ("The session path has one way to run cycles",
     ["src/repro/core/protocol.py"], "G", r"make_engine(",
     "        eng = make_engine(net, backend)"),
    ("The backends garble with the run kernel, written once",
     ["src/repro/core/protocol.py"], "E", r"garble_gate\(|evaluate_gate\(",
     "        row = garble_gate(tt, la, lb, delta, gid)"),
    ("The backends garble with the run kernel, written once",
     ["src/"], "E", r"hash_labels[24]",
     "def hash_labels2(a, b, tweak):"),
    ("The session's edges send only what the trace leaves open",
     ["src/repro/gc/ot_extension.py"], "E", r"_base\.(send|receive)_many\(",
     "        self._base.send_many(pairs)"),
    ("The session's edges send only what the trace leaves open",
     ["src/repro/core/protocol.py"], "E", r'"(pub|lbl)"',
     '        chan.send("outputs", {"pub": bits, "lbl": labels})'),
    ("The sweep is a compiler stage, off the session surface",
     ["src/repro/gc/material.py"], "G", r"_Record",
     "class _Record:"),
    ("The sweep is a compiler stage, off the session surface",
     ["src/repro/core/engine.py", "src/repro/core/plan.py"], "E",
     r"def (snapshot|restore)\b",
     "    def snapshot(self) -> dict:"),
    ("The sweep is a compiler stage, off the session surface",
     ["src/repro/net/cli.py", "src/repro/serve/cli.py"], "G", r'"--engine"',
     '    p.add_argument("--engine", default="compiled")'),
    ("The sweep is a compiler stage, off the session surface",
     ["src/repro/serve/config.py"], "E", r"^\s+engine\s*:",
     '    engine: str = "compiled"'),
    ("IKNP extension is the one session OT",
     ["src/repro"], "G", r"simplest",
     '    ot: str = "simplest"'),
    ("IKNP extension is the one session OT",
     ["src/repro"], "F", r'add_argument("--ot"',
     '    p.add_argument("--ot", choices=("extension",))'),
    ("IKNP extension is the one session OT",
     ["src/repro"], "F", r'config["ot"]',
     '        kind = config["ot"]'),
    ("IKNP extension is the one session OT",
     ["src/repro/core/protocol.py", "src/repro/serve/"], "E", r"\bot (==|!=)",
     '    if ot == "extension":'),
    ("IKNP extension is the one session OT",
     ["src/repro/gc/ot.py"], "E", r"def (send|receive)_many\b",
     "    def send_many(self, pairs):"),
    ("One garbler party",
     ["src/repro"], "E",
     r"class MaterialGarblerParty|def make_adopted_party|def finish_garbler|can_handoff",
     "class MaterialGarblerParty(GarblerParty):"),
    ("One garbler party",
     ["src/repro/core/protocol.py::GarblerBackend"], "E", r"def rebind|\bchan\b",
     "    def rebind(self, chan):"),
    ("Macro ports reach an engine only through MacroContext",
     ["src/repro/core/plan.py"], "E", r"_ShimEngine|_StateProxy|_shim_ctx",
     "class _ShimEngine:"),
    ("Macro ports reach an engine only through MacroContext",
     ["src/repro/circuit/"], "G", r"_eng\b",
     "        state = ctx._eng.state"),
    ("A serve worker shares no memory with its parent",
     ["src/repro/serve"], "E", r"\.Array\(|get_lock\(|_IDX_|materials=",
     '            block = self._ctx.Array("l", len(STAT_FIELDS))'),
    ("The router has no byte path",
     ["src/repro/serve/router.py"], "E",
     r"_Splice|set_protocol|pause_reading|resume_reading",
     "        transport.pause_reading()"),
]

#: BRE spells these literally and escapes them to make them special;
#: Python's ``re`` is the other way round.
_BRE_SWAP = set("(){}|+?")


def _regex(flavour: str, pattern: str) -> "re.Pattern[str]":
    if flavour == "F":
        return re.compile(re.escape(pattern))
    if flavour == "G":
        out, i = [], 0
        while i < len(pattern):
            c = pattern[i]
            if c == "\\" and i + 1 < len(pattern) and pattern[i + 1] in _BRE_SWAP:
                out.append(pattern[i + 1])
                i += 2
                continue
            out.append("\\" + c if c in _BRE_SWAP else c)
            i += 1
        pattern = "".join(out)
    return re.compile(pattern)


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _class_source(path: Path, name: str) -> str:
    tree = ast.parse(_text(path))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return ast.get_source_segment(_text(path), node)
    raise AssertionError(f"{path.relative_to(ROOT)} has no class {name}")


def _guarded_texts(spec: str):
    """(label, text) for every file a guard path covers, as grep would
    read them (``-r`` for a directory), skipping bytecode caches."""
    file_part, _, cls = spec.partition("::")
    path = ROOT / file_part
    assert path.exists(), f"guarded path {file_part} does not exist"
    if cls:
        yield spec, _class_source(path, cls)
    elif path.is_dir():
        for f in sorted(path.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                yield str(f.relative_to(ROOT)), _text(f)
    else:
        yield file_part, _text(path)


def _hits(paths, flavour, pattern):
    rx = _regex(flavour, pattern)
    return [
        f"{label}:{n}: {line.strip()}"
        for spec in paths
        for label, text in _guarded_texts(spec)
        for n, line in enumerate(text.splitlines(), 1)
        if rx.search(line)
    ]


@pytest.mark.parametrize("guard", sorted({row[0] for row in GUARDS}))
def test_guard_is_clean(guard):
    rows = [row for row in GUARDS if row[0] == guard]
    for _, paths, flavour, pattern, sample in rows:
        assert _regex(flavour, pattern).search(sample), (
            f"pattern {pattern!r} no longer matches its sample {sample!r}")
        hits = _hits(paths, flavour, pattern)
        assert not hits, f"{guard}: {pattern!r} is back\n" + "\n".join(hits)


# -- CI ------------------------------------------------------------------------


def _ci_lines():
    """ci.yml with shell line continuations joined."""
    return re.sub(r"\\\n\s*", " ", _text(CI)).splitlines()


def _subcommands():
    """Every subcommand name registered with ``add_parser``."""
    return {
        name
        for f in (ROOT / "src" / "repro").rglob("*.py")
        for name in re.findall(r"\badd_parser\(\s*\"([\w-]+)\"", _text(f))
    }


def _ci_targets():
    scripts, tests, commands = set(), set(), set()
    for line in _ci_lines():
        scripts.update(re.findall(r"\bpython3? (?:-\S+ )*([\w./-]+\.py)\b", line))
        commands.update(re.findall(r"\bpython3? -m repro (\S+)", line))
        m = re.search(r"-m pytest (.*)", line)
        if m:
            args = shlex.split(m.group(1).split("|")[0])
            skip = False
            for arg in args:
                if skip or ">" in arg:
                    skip = False
                    continue
                if arg in ("-k", "-m", "-p"):
                    skip = True
                elif not arg.startswith("-"):
                    tests.add(arg.split("::")[0])
    return scripts, tests, commands


def test_every_file_ci_runs_exists():
    scripts, tests, _ = _ci_targets()
    assert scripts and tests
    missing = sorted(p for p in scripts | tests if not (ROOT / p).exists())
    assert not missing, f"ci.yml runs files that do not exist: {missing}"


def test_every_repro_subcommand_ci_calls_is_registered():
    _, _, commands = _ci_targets()
    assert commands
    unknown = sorted(commands - _subcommands())
    assert not unknown, f"ci.yml calls unregistered `repro` commands: {unknown}"


def test_every_committed_ci_script_is_run():
    scripts, _, _ = _ci_targets()
    committed = {str(p.relative_to(ROOT)) for p in SCRIPTS.glob("*.py")}
    assert committed, "no committed CI scripts"
    assert committed <= scripts, f"never run by ci.yml: {sorted(committed - scripts)}"


def test_ci_has_no_long_inline_program_and_no_source_grep():
    yaml = pytest.importorskip("yaml")
    ci = yaml.safe_load(_text(CI))
    for job, spec in ci["jobs"].items():
        for step in spec["steps"]:
            run = step.get("run", "")
            for body in re.findall(r"python3? - [^\n]*<<'EOF'\n(.*?)\nEOF", run, re.S):
                n = body.count("\n") + 1
                assert n <= 20, f"{job}/{step['name']}: {n}-line inline program"
            assert not re.search(r"grep [^\n|]*\bsrc/", run), (
                f"{job}/{step['name']} greps the source: a guard belongs in GUARDS")


# -- docs ----------------------------------------------------------------------

#: Directories that hold no citing source, and the change history, which
#: quotes old section numbers on purpose.
_SKIP_DIRS = {".git", ".hypothesis", ".pytest_cache", "__pycache__", "results"}
_HISTORY = {"CHANGES.md"}
_CITATION = re.compile(r"DESIGN(?:\.md)?[\s#*>`,]*§\s*(\d+)")


def _citing_files():
    for dirpath, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in _SKIP_DIRS]
        for name in files:
            if name.endswith((".py", ".md", ".yml")) and name not in _HISTORY:
                yield Path(dirpath, name)


def test_every_design_citation_names_a_section():
    sections = {int(n) for n in re.findall(r"^## (\d+)\. ", _text(ROOT / "DESIGN.md"), re.M)}
    cited, bad = 0, []
    for f in _citing_files():
        text = _text(f)
        for m in _CITATION.finditer(text):
            cited += 1
            if int(m.group(1)) not in sections:
                line = text.count("\n", 0, m.start()) + 1
                bad.append(f"{f.relative_to(ROOT)}:{line}: §{m.group(1)}")
    assert cited, "no DESIGN.md citation found"
    assert not bad, f"citations of missing DESIGN.md sections: {bad}"
