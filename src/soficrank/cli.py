"""Batch front-end: run invariant pipelines from a structured config file.

Config format: line-oriented sections with ``key = value`` entries.

    [group]
    family = free              # free | free_abelian | finite_table
    rank = 2                   # free / free_abelian: >= 1
    names = a b                # optional generator (or element) names:
                               # identifiers, 'e' only for the identity
    table = s3.txt             # finite_table: table file path

    [complex]                  # betti / mrk_j / euler / defect / oracle
    ranks = 2 1                # n_k ... n_0, top degree first
    d1 = a - 1 ; b - 1         # d_k ... d_1: rows ';', entries ','
    kernel = ...               # defect only: rows generating ker d_1, K*d1 = 0

    [module]                   # vrk / relative / meanrank
    free_rank = 1              # >= 1
    relations = ...            # optional relation matrix
    generators = a - 1 ; b - 1 # relative only: generating vectors of the submodule
    a_gens = 1                 # meanrank only: vectors, rows ';', components ','
    b_gens = 1                 # meanrank only
    f_set = e ; a ; b          # meanrank only: group elements
    window = ...               # meanrank only, over infinite families

    [quotients]                # every pipeline but oracle
    provider = sanov           # grid | sanov | regular | random
    moduli = 3 15              # grid / sanov
    degrees = 100              # random (one stage per degree)
    seed = 7                   # random: any integer, default 0

    [run]                      # the values shown are the defaults
    pipeline = betti           # betti|vrk|relative|mrk_j|euler|defect|meanrank|soficity|oracle
    j = 0                      # betti / mrk_j: degree index, >= 0
    pairs = a, b ; ab, ba      # soficity only, required: no pair twice
    primes = 3                 # certification primes per round, >= 1
    prime_bits = 50 62         # primes in [2^lo, 2^hi), 0 <= lo < hi <= 63
    dense_threshold = 500      # Bareiss fallback up to this dimension, >= 0
    max_rounds = 3             # prime-drawing rounds, >= 1
    seed = 0                   # any integer
    size_cap = 200000          # model degree and linearized dimension bound, >= 0
    dump_matrices = false      # true | false

``pipeline``, ``family``, ``provider`` and the keys without a default are
required; an empty optional value counts as absent.  A key the job does not
read is an error: a typo, ``d3`` in a two-term complex, ``moduli`` under
``provider = regular``, or a key of another pipeline, since each of
``kernel``, ``generators``, ``a_gens``, ``b_gens``, ``f_set``, ``window``,
``j`` and ``pairs`` is read only by the pipelines its comment names.  So is
a section the pipeline does not read (``[quotients]`` in an oracle job,
``[complex]`` in a vrk job), a pipeline whose inputs are missing, a ``j``
above the complex's top degree (betti, mrk_j), a defect complex that is not
two-term (at ``ranks``) or whose kernel rows are not annihilated by d_1 (at
``kernel``), and ``provider = random`` for a pipeline other than meanrank
or soficity, since random models are heuristic.  Each of these is found
before any model is built.  Every config error names the file, and the
line of its key (of its section when the key is missing or the section is
not read), or the command-line flag that set the value.

``size_cap`` bounds every model a job builds, soficity included: the degree
of each grid, Sanov or random stage follows from ``moduli`` or ``degrees``
and is checked at load, with the strict increase of the degrees, before any
image is built (a regular model is the table the job has already read).  It
also bounds each matrix the job linearizes: (rows + columns) times degree.

Outputs: ``series.csv`` (invariant_label, degree, value_num, value_den,
certified), ``summary.txt``, and optional ``matrix_*.mtx`` dumps.  Decimal
renderings in the summary use 6 significant digits and are not
authoritative; the rationals in the CSV are the contract.
"""

from __future__ import annotations

import argparse
import os
import sys

from .exprs import parse_ring_element, parse_ring_matrix
from .groups import (
    FiniteTable,
    Free,
    FreeAbelian,
    SizeCapExceeded,
    _check_names,
    grid_sequence,
    random_sequence,
    regular_sequence,
    sanov_sequence,
    soficity_defect,
)
from .invariants import (
    ApproximantSeries,
    ModulePresentation,
    SeriesPoint,
    _betti_series,
    _kernel_complex,
    betti_approximants,
    euler_approximants,
    euler_characteristic,
    finite_group_exact_betti,
    literal_mean_rank_point,
    mrk_j_approximants,
    relative_vrk_approximants,
    series_to_csv,
    vrk_approximants,
)
from .linearize import DEFAULT_SIZE_CAP, linearize, write_matrix_market
from .rank import DEFAULT_POLICY, RankPolicy
from .ring import RingMatrix, build_complex

__all__ = ["ConfigError", "JobConfig", "load_config", "run", "main"]

# pipeline -> the inputs it reads: a section, or a key of a section
_PIPELINE_INPUTS = {
    "betti": ("[complex]", "[quotients]"),
    "vrk": ("[module]", "[quotients]"),
    "relative": ("[module]", "[quotients]"),
    "mrk_j": ("[complex]", "[quotients]"),
    "euler": ("[complex]", "[quotients]"),
    "defect": ("[complex]", "[quotients]"),
    "meanrank": ("[module]", "[quotients]"),
    "soficity": ("[quotients]",),
    "oracle": ("[complex]", "[group] table"),
}
PIPELINES = tuple(_PIPELINE_INPUTS)

_SECTION_ORDER = ("group", "complex", "module", "quotients", "run")


class ConfigError(ValueError):
    """A bad config value, located at ``path:line`` or, when a command-line
    flag set the value, at ``path: --flag``."""

    def __init__(self, message, path="<config>", line=None):
        if line is None:
            where = path
        elif isinstance(line, str):
            where = "%s: %s" % (path, line)
        else:
            where = "%s:%d" % (path, line)
        super().__init__("%s: %s" % (where, message))
        self.path = path
        self.line = line


# ---- value parsers: (text, family) -> value, ValueError on bad text ----

def _integer(text, family=None):
    try:
        return int(text)
    except ValueError:
        raise ValueError("%r is not an integer" % text) from None


def _integers(text, family=None):
    return [_integer(x) for x in text.split()]


def _at_least(lo):
    def parse(text, family=None):
        value = _integer(text)
        if value < lo:
            raise ValueError("must be >= %d, got %d" % (lo, value))
        return value

    return parse


def _one_of(*choices):
    def parse(text, family=None):
        if text not in choices:
            raise ValueError("%r is not one of %s" % (text, " | ".join(choices)))
        return text

    return parse


def _boolean(text, family=None):
    if text.lower() not in ("true", "false"):
        raise ValueError("%r is not true or false" % text)
    return text.lower() == "true"


def _prime_bits(text, family=None):
    # RankPolicy holds the rule: primes must fit a machine word
    return RankPolicy(prime_bits=_integers(text)).prime_bits


def _element_names(text, family=None):
    # the syntax of a table's element names, checked before the table is
    # read; the table then checks that there is one name per element
    names = text.split()
    return _check_names(names, len(names), "element", 0)


def _element(text, family):
    f = parse_ring_element(text, family)
    if len(f.terms) != 1 or next(iter(f.terms.values())) != 1:
        raise ValueError("%r is not a single group element" % text)
    return next(iter(f.terms))


def _elements(text, family):
    return [_element(part, family) for part in text.split(";")]


def _pairs(text, family):
    pairs = []
    for part in text.split(";"):
        sides = part.split(",")
        if len(sides) != 2:
            raise ValueError("each pair needs two elements")
        pair = (_element(sides[0], family), _element(sides[1], family))
        # a repeated pair would repeat its series
        if pair in pairs:
            raise ValueError("pair %r, %r repeats an earlier pair" % pair)
        pairs.append(pair)
    return pairs


_REQUIRED = object()

# [run] key -> (parser, default, the RankPolicy field it sets)
_RUN_KEYS = {
    "pipeline": (_one_of(*PIPELINES), _REQUIRED, None),
    "primes": (_at_least(1), DEFAULT_POLICY.primes_count, "primes_count"),
    "prime_bits": (_prime_bits, DEFAULT_POLICY.prime_bits, "prime_bits"),
    "dense_threshold": (_at_least(0), DEFAULT_POLICY.dense_threshold, "dense_threshold"),
    "max_rounds": (_at_least(1), DEFAULT_POLICY.max_rounds, "max_rounds"),
    "seed": (_integer, DEFAULT_POLICY.seed, "seed"),
    "size_cap": (_at_least(0), DEFAULT_SIZE_CAP, None),
    "dump_matrices": (_boolean, False, None),
}


def _show(value):
    """Config text that parses back to ``value``: a flag, a scalar, a list
    of integers or names joined by spaces, or rows (a matrix, elements,
    pairs) joined by ';' with their entries joined by ','."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, RingMatrix):
        value = value.entries
    if all(isinstance(x, (int, str)) for x in value):
        return " ".join(map(str, value))
    return " ; ".join(
        ", ".join(map(str, x)) if isinstance(x, (list, tuple)) else str(x) for x in value
    )


def _parse_sections(text, path):
    sections = {}
    lines = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTION_ORDER:
                raise ConfigError("unknown section [%s]" % current, path, lineno)
            sections.setdefault(current, {})
            lines.setdefault((current, None), lineno)
            continue
        if current is None:
            raise ConfigError("key outside any section", path, lineno)
        if "=" not in line:
            raise ConfigError("expected 'key = value'", path, lineno)
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if key in sections[current]:
            raise ConfigError("duplicate key %r" % key, path, lineno)
        sections[current][key] = value
        lines[(current, key)] = lineno
    return sections, lines


class JobConfig:
    """A validated job: group family, payload objects, quotients, options."""

    # the payloads a job does not give stay None
    family = complex = kernel_complex = module = quotients = None
    generators = a_gens = b_gens = f_set = window = None

    def __init__(self, sections, path="<config>", base_dir=".", lines=None):
        self.path = path
        self.lines = lines or {}
        self.sections = sections
        self.base_dir = base_dir
        self._read = {}  # (section, key) -> the value the job read, in read order
        self._build()

    def _fail(self, section, key, message):
        """A ConfigError at [section] key, or at the section when key is None."""
        raise ConfigError(
            "[%s]%s: %s" % (section, " " + key if key else "", message),
            self.path,
            self.lines.get((section, key), self.lines.get((section, None))),
        )

    def _value(self, section, key, parse, default=_REQUIRED):
        """``parse(text, family)`` of [section] key, or ``default`` when it
        is absent or empty; a bad value is a located ConfigError.  Records
        the read and the value, which normalized_text prints."""
        text = self.sections.get(section, {}).get(key)
        if not text:
            if default is _REQUIRED:
                self._fail(section, key, "missing")
            value = default
        else:
            try:
                value = parse(text, self.family)
            except ValueError as exc:
                self._fail(section, key, str(exc))
        self._read[(section, key)] = value
        return value

    def _build(self):
        # ---- group ----
        kind = self._value("group", "family", _one_of("free", "free_abelian", "finite_table"))
        names = self._value(
            "group", "names",
            _element_names if kind == "finite_table" else lambda text, _: tuple(text.split()),
            None,
        )
        if kind == "finite_table":
            path = self._value(
                "group", "table",
                lambda text, _: os.path.abspath(os.path.join(self.base_dir, text)),
            )
            try:
                with open(path) as fh:
                    self.family = FiniteTable.from_text(fh.read(), names)
            except (OSError, ValueError) as exc:
                self._fail("group", "table", str(exc))
        else:
            rank = self._value("group", "rank", _at_least(1))
            try:
                self.family = (Free if kind == "free" else FreeAbelian)(rank, names)
            except ValueError as exc:
                self._fail("group", "names", str(exc))

        # ---- run, and the sections the pipeline reads ----
        # read before any model is built: the pipeline decides which
        # sections are read, and the size cap bounds the models
        self.options = {
            key: self._value("run", key, parse, default)
            for key, (parse, default, _) in _RUN_KEYS.items()
        }
        cap = self.options["size_cap"]
        pipeline = self.options["pipeline"]
        if pipeline == "soficity":
            self.options["pairs"] = self._value("run", "pairs", _pairs)
        needs = _PIPELINE_INPUTS[pipeline]
        for section, values in self.sections.items():
            if values and section not in ("group", "run") and "[%s]" % section not in needs:
                self._fail(section, None, "%s does not read this section" % pipeline)
        for need in needs:
            section, key = need[1:].split("]")
            values = self.sections.get(section, {})
            if not (values.get(key.strip()) if key else values):
                self._fail("run", "pipeline", "%s needs %s" % (pipeline, need))

        # ---- complex ----
        if self.sections.get("complex"):
            ranks = self._value("complex", "ranks", _integers)
            diffs = [
                self._value("complex", "d%d" % j, parse_ring_matrix)
                for j in range(len(ranks) - 1, 0, -1)
            ]
            try:
                self.complex = build_complex(self.family, ranks, diffs)
            except ValueError as exc:
                self._fail("complex", "ranks", str(exc))
            top = self.complex.top_degree
            if pipeline in ("betti", "mrk_j"):
                j = self.options["j"] = self._value("run", "j", _at_least(0), 0)
                if j > top:
                    self._fail("run", "j", "%d is above the complex's top degree %d" % (j, top))
            elif pipeline == "defect":
                if top != 1:
                    self._fail("complex", "ranks", "defect needs a two-term complex")
                kernel = self._value("complex", "kernel", parse_ring_matrix, None)
                try:
                    # K -> d_1, built once: run ranks this complex
                    self.kernel_complex = _kernel_complex(self.complex, kernel)
                except ValueError as exc:
                    self._fail("complex", "kernel", str(exc))

        # ---- module ----
        if self.sections.get("module"):
            n = self._value("module", "free_rank", _at_least(1))
            relations = self._value("module", "relations", parse_ring_matrix, None)
            try:
                self.module = ModulePresentation(self.family, n, relations)
            except ValueError as exc:
                self._fail("module", "relations", str(exc))

            def vectors(text, family):
                mat = parse_ring_matrix(text, family)
                if mat.cols != n:
                    raise ValueError("vectors must have %d components" % n)
                return mat

            if pipeline == "relative":
                self.generators = self._value("module", "generators", vectors)
            elif pipeline == "meanrank":
                self.a_gens = self._value("module", "a_gens", vectors)
                self.b_gens = self._value("module", "b_gens", vectors)
                self.f_set = self._value("module", "f_set", _elements)
                self.window = self._value("module", "window", _elements, None)

        # ---- quotients: read here, built after the unread-key check ----
        build = None  # (the key a failed build is located at, its builder)
        if self.sections.get("quotients"):
            provider = self._value(
                "quotients", "provider", _one_of("grid", "sanov", "regular", "random")
            )
            if provider == "random" and pipeline not in ("meanrank", "soficity"):
                self._fail("quotients", "provider",
                           "random models are heuristic; %s needs genuine ones" % pipeline)
            if provider == "regular":
                if not isinstance(self.family, FiniteTable):
                    self._fail("quotients", "provider", "regular needs a finite_table family")
                build = "provider", lambda: regular_sequence(self.family)
            elif provider == "random":
                degrees = self._value("quotients", "degrees", _integers)
                seed = self._value("quotients", "seed", _integer, 0)
                build = "degrees", lambda: random_sequence(self.family, degrees, seed, cap)
            else:
                moduli = self._value("quotients", "moduli", _integers)
                if provider == "grid" and not isinstance(self.family, FreeAbelian):
                    self._fail("quotients", "provider", "grid needs a free_abelian family")
                build = "moduli", lambda: (
                    grid_sequence(self.family.rank, moduli, self.family, cap)
                    if provider == "grid"
                    else sanov_sequence(moduli, self.family, cap)
                )

        # ---- every key read ----
        for section, values in self.sections.items():
            for key in values:
                if (section, key) not in self._read:
                    self._fail(section, key, "unknown key (this job does not read it)")

        # ---- models: the costly step, taken once every other check passed ----
        if build is not None:
            key, make = build
            try:
                self.quotients = make()
            except (ValueError, SizeCapExceeded) as exc:
                self._fail("quotients", key, str(exc))

    def normalized_text(self):
        """Every value the job read, section by section, in the order read."""
        blocks = []
        for section in _SECTION_ORDER:
            lines = [
                "%s = %s" % (key, _show(value))
                for (where, key), value in self._read.items()
                if where == section and value is not None
            ]
            if lines:
                blocks.append("\n".join(["[%s]" % section] + lines))
        return "\n\n".join(blocks) + "\n"

    def policy(self):
        return RankPolicy(**{
            field: self.options[key]
            for key, (_, _, field) in _RUN_KEYS.items()
            if field is not None
        })


def load_config(path):
    return JobConfig(*_read_sections(path))


def _read_sections(path):
    """JobConfig's (sections, path, base_dir, lines) for the file at path."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc), path) from None
    sections, lines = _parse_sections(text, path)
    return sections, path, os.path.dirname(os.path.abspath(path)), lines


def _render_value(value):
    return "%s (~%.6g)" % (value, float(value))


def run(config, out_dir=".", strict=False):
    """Execute a job; writes series.csv and summary.txt under out_dir.

    Returns 0 on success, 1 when --strict is set and any emitted rank was
    uncertified.
    """
    o = config.options
    pipeline = o["pipeline"]
    policy = config.policy()
    cap = o["size_cap"]
    series = []
    summary = []
    summary.append("pipeline: %s" % pipeline)
    summary.append("family: %r" % config.family)

    # JobConfig has checked that the pipeline's inputs are present
    C, M, Q = config.complex, config.module, config.quotients
    if pipeline == "betti":
        series.append(betti_approximants(C, Q, o["j"], policy, cap))
    elif pipeline == "mrk_j":
        series.append(mrk_j_approximants(C, Q, o["j"], policy, cap))
    elif pipeline == "vrk":
        series.append(vrk_approximants(M, Q, policy, cap))
    elif pipeline == "relative":
        series.append(relative_vrk_approximants(M, config.generators, Q, policy, cap))
    elif pipeline == "euler":
        chi = euler_characteristic(C)
        summary.append("chi = %d" % chi)
        series.extend(euler_approximants(C, Q, policy, cap))
    elif pipeline == "defect":
        series.append(
            _betti_series("juzvinskii_defect", config.kernel_complex, Q, 1, policy, cap)
        )
    elif pipeline == "meanrank":
        points = tuple(
            literal_mean_rank_point(
                M, config.a_gens, config.b_gens, config.f_set, q, config.window, policy, cap
            )
            for q in Q
        )
        series.append(ApproximantSeries("literal_mean_rank", points, Q.chain))
    elif pipeline == "soficity":
        mult_rows = {}
        sep_rows = {}
        for q in Q:
            for defect in soficity_defect(q, o["pairs"]):
                key = "(%r,%r)" % (defect.s, defect.t)
                mult_rows.setdefault(key, []).append(
                    SeriesPoint(q.degree, defect.mult_defect, True)
                )
                if defect.sep_defect is not None:
                    sep_rows.setdefault(key, []).append(
                        SeriesPoint(q.degree, defect.sep_defect, True)
                    )
        for key, pts in mult_rows.items():
            series.append(
                ApproximantSeries("mult_defect%s" % key, tuple(pts), Q.chain)
            )
        for key, pts in sep_rows.items():
            series.append(
                ApproximantSeries("sep_defect%s" % key, tuple(pts), Q.chain)
            )
    elif pipeline == "oracle":
        values = finite_group_exact_betti(C, cap)
        g = config.family.order
        for j, v in enumerate(values):
            series.append(
                ApproximantSeries(
                    "oracle_betti[j=%d]" % j,
                    (SeriesPoint(g, v, True),),
                    True,
                )
            )

    os.makedirs(out_dir, exist_ok=True)
    series_to_csv(series, os.path.join(out_dir, "series.csv"))

    uncertified = [
        (s.invariant_label, p.degree)
        for s in series
        for p in s.points
        if not p.certified
    ]
    for s in series:
        summary.append("")
        summary.append("%s (chain=%s)" % (s.invariant_label, s.chain))
        for p in s.points:
            flag = "certified" if p.certified else "UNCERTIFIED"
            summary.append(
                "  d=%d  value=%s  [%s]" % (p.degree, _render_value(p.value), flag)
            )
    summary.append("")
    summary.append("decimals are 6-significant-digit renderings; rationals are authoritative")
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary) + "\n")

    if o["dump_matrices"] and C is not None and Q is not None:
        for qi, q in enumerate(Q):
            for j in range(1, C.top_degree + 1):
                m = linearize(C.differential(j), q, cap)
                write_matrix_market(
                    m, os.path.join(out_dir, "matrix_stage%d_d%d.mtx" % (qi, j))
                )

    if uncertified:
        msg = "uncertified ranks: %s" % ", ".join(
            "%s@d=%d" % pair for pair in uncertified
        )
        print(msg, file=sys.stderr)
        if strict:
            return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="soficrank",
        description="finite-scale rank invariants of group-ring chain complexes",
    )
    parser.add_argument("--config", required=True, help="job config path")
    parser.add_argument("--pipeline", choices=PIPELINES, help="override [run] pipeline")
    parser.add_argument("--j", type=int, help="override degree index")
    parser.add_argument("--primes", type=int, help="override certification prime count")
    parser.add_argument("--seed", type=int, help="override policy/model seed")
    parser.add_argument("--strict", action="store_true", help="fail on uncertified ranks")
    parser.add_argument("--size-cap", type=int, help="override model and linearization size cap")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--dump-normalized",
        action="store_true",
        help="print the normalized config and exit",
    )
    parser.add_argument(
        "--dump-matrices", action="store_true", help="write matrix_*.mtx dumps"
    )
    args = parser.parse_args(argv)
    run_keys = {
        "pipeline": args.pipeline,
        "j": args.j,
        "primes": args.primes,
        "seed": args.seed,
        "size_cap": args.size_cap,
        "dump_matrices": "true" if args.dump_matrices else None,
    }
    try:
        sections, path, base_dir, lines = _read_sections(args.config)
        # an overridden value is located at its flag, not at the file's line
        for key, value in run_keys.items():
            if value is not None:
                sections.setdefault("run", {})[key] = str(value)
                lines[("run", key)] = "--" + key.replace("_", "-")
        if args.seed is not None and sections.get("quotients", {}).get("provider") == "random":
            # the seed drives both the rank policy and any random models
            sections["quotients"]["seed"] = str(args.seed)
            lines[("quotients", "seed")] = "--seed"
        config = JobConfig(sections, path, base_dir, lines)
        if args.dump_normalized:
            sys.stdout.write(config.normalized_text())
            return 0
        return run(config, out_dir=args.out, strict=args.strict)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
