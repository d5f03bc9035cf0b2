"""Batch front-end: run invariant pipelines from a structured config file.

Config format: line-oriented sections with ``key = value`` entries.

    [group]
    family = free              # free | free_abelian | finite_table
    rank = 2                   # free / free_abelian
    names = a b                # optional generator names
    table = s3.txt             # finite_table: table file path

    [complex]                  # betti / mrk_j / euler / defect / oracle
    ranks = 2 1                # n_k ... n_0, top degree first
    d1 = a - 1 ; b - 1         # differential matrices: rows ';', entries ','
    kernel = ...               # defect only: rows generating ker d_1

    [module]                   # vrk / relative / meanrank
    free_rank = 1
    relations = ...            # optional relation matrix
    generators = a - 1 ; b - 1 # relative: generating vectors of the submodule
    a_gens = 1                 # meanrank: vectors, rows ';', components ','
    b_gens = 1
    f_set = e ; a ; b          # meanrank: group elements
    window = ...               # meanrank over infinite families

    [quotients]
    provider = sanov           # grid | sanov | regular | random
    moduli = 3 15              # grid / sanov
    degrees = 100              # random (one stage per degree)
    seed = 7                   # random

    [run]
    pipeline = betti           # betti|vrk|relative|mrk_j|euler|defect|meanrank|soficity|oracle
    j = 1
    pairs = a, b ; ab, ba      # soficity
    primes = 3
    prime_bits = 50 62
    dense_threshold = 500
    seed = 0
    size_cap = 200000
    dump_matrices = false

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
    QuotientSequence,
    grid_sequence,
    random_quotient,
    regular_sequence,
    sanov_sequence,
    soficity_defect,
)
from .invariants import (
    ApproximantSeries,
    FiniteSubgroupSpec,
    ModulePresentation,
    SeriesPoint,
    betti_approximants,
    euler_approximants,
    euler_characteristic,
    finite_group_exact_betti,
    juzvinskii_defect,
    literal_mean_rank_point,
    mrk_j_approximants,
    relative_vrk_approximants,
    series_to_csv,
    vrk_approximants,
)
from .linearize import DEFAULT_SIZE_CAP, linearize, write_matrix_market
from .rank import RankPolicy

__all__ = ["ConfigError", "JobConfig", "load_config", "run", "main"]

PIPELINES = (
    "betti",
    "vrk",
    "relative",
    "mrk_j",
    "euler",
    "defect",
    "meanrank",
    "soficity",
    "oracle",
)

_SECTION_ORDER = ("group", "complex", "module", "quotients", "run")


class ConfigError(ValueError):
    def __init__(self, message, path="<config>", line=None):
        where = path if line is None else "%s:%d" % (path, line)
        super().__init__("%s: %s" % (where, message))
        self.path = path
        self.line = line


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

    def __init__(self, sections, path="<config>", base_dir=".", lines=None):
        self.path = path
        self.lines = lines or {}
        self.sections = sections
        self.base_dir = base_dir
        self.family = None
        self.complex = None
        self.kernel = None
        self.module = None
        self.generators = None
        self.a_gens = None
        self.b_gens = None
        self.f_set = None
        self.window = None
        self.quotients = None
        self.options = {}
        self._build()

    def _fail(self, section, key, message):
        raise ConfigError(
            "[%s] %s: %s" % (section, key, message),
            self.path,
            self.lines.get((section, key)),
        )

    def _get(self, section, key, default=None):
        return self.sections.get(section, {}).get(key, default)

    def _parse_expr(self, section, key, text):
        try:
            return parse_ring_element(text, self.family)
        except ValueError as exc:
            self._fail(section, key, str(exc))

    def _parse_matrix(self, section, key, text):
        try:
            return parse_ring_matrix(text, self.family)
        except ValueError as exc:
            self._fail(section, key, str(exc))

    def _parse_element(self, section, key, text):
        f = self._parse_expr(section, key, text)
        if len(f.terms) != 1 or next(iter(f.terms.values())) != 1:
            self._fail(section, key, "%r is not a single group element" % text)
        return next(iter(f.terms))

    def _build(self):
        # ---- group ----
        grp = self.sections.get("group")
        if not grp:
            raise ConfigError("missing [group] section", self.path)
        kind = grp.get("family")
        names = tuple(grp["names"].split()) if "names" in grp else None
        if kind == "free":
            self.family = Free(int(grp.get("rank", 0)), names)
        elif kind == "free_abelian":
            self.family = FreeAbelian(int(grp.get("rank", 0)), names)
        elif kind == "finite_table":
            table_path = grp.get("table")
            if not table_path:
                self._fail("group", "family", "finite_table needs table = PATH")
            resolved = os.path.join(self.base_dir, table_path)
            try:
                with open(resolved) as fh:
                    self.family = FiniteTable.from_text(fh.read(), names)
            except OSError as exc:
                self._fail("group", "table", str(exc))
            except ValueError as exc:
                self._fail("group", "table", str(exc))
            self.table_path = os.path.abspath(resolved)
        else:
            self._fail("group", "family", "unknown family %r" % kind)

        # ---- complex ----
        cx = self.sections.get("complex")
        if cx:
            try:
                ranks = [int(x) for x in cx["ranks"].split()]
            except (KeyError, ValueError):
                self._fail("complex", "ranks", "needs a list of positive integers")
            k = len(ranks) - 1
            diffs = []
            for j in range(k, 0, -1):
                key = "d%d" % j
                if key not in cx:
                    self._fail("complex", key, "missing differential d%d" % j)
                diffs.append(self._parse_matrix("complex", key, cx[key]))
            from .ring import build_complex

            try:
                self.complex = build_complex(self.family, ranks, diffs)
            except ValueError as exc:
                self._fail("complex", "ranks", str(exc))
            if "kernel" in cx:
                self.kernel = self._parse_matrix("complex", "kernel", cx["kernel"])

        # ---- module ----
        mod = self.sections.get("module")
        if mod:
            try:
                n = int(mod["free_rank"])
            except (KeyError, ValueError):
                self._fail("module", "free_rank", "needs a positive integer")
            relations = None
            if mod.get("relations"):
                relations = self._parse_matrix("module", "relations", mod["relations"])
            try:
                self.module = ModulePresentation(self.family, n, relations)
            except ValueError as exc:
                self._fail("module", "relations", str(exc))
            for attr, key in (("generators", "generators"), ("a_gens", "a_gens"), ("b_gens", "b_gens")):
                if mod.get(key):
                    mat = self._parse_matrix("module", key, mod[key])
                    if mat.cols != n:
                        self._fail("module", key, "vectors must have %d components" % n)
                    setattr(
                        self,
                        attr,
                        FiniteSubgroupSpec(self.family, n, tuple(tuple(r) for r in mat.entries)),
                    )
            if mod.get("f_set"):
                self.f_set = [
                    self._parse_element("module", "f_set", part)
                    for part in mod["f_set"].split(";")
                ]
            if mod.get("window"):
                self.window = [
                    self._parse_element("module", "window", part)
                    for part in mod["window"].split(";")
                ]

        # ---- quotients ----
        qt = self.sections.get("quotients")
        if qt:
            provider = qt.get("provider")
            if provider in ("grid", "sanov"):
                try:
                    moduli = [int(x) for x in qt["moduli"].split()]
                except (KeyError, ValueError):
                    self._fail("quotients", "moduli", "needs a list of integers")
                try:
                    if provider == "grid":
                        if not isinstance(self.family, FreeAbelian):
                            self._fail("quotients", "provider", "grid needs a free_abelian family")
                        self.quotients = grid_sequence(self.family.rank, moduli, self.family)
                    else:
                        self.quotients = sanov_sequence(moduli, self.family)
                except ValueError as exc:
                    self._fail("quotients", "moduli", str(exc))
            elif provider == "regular":
                if not isinstance(self.family, FiniteTable):
                    self._fail("quotients", "provider", "regular needs a finite_table family")
                self.quotients = regular_sequence(self.family)
            elif provider == "random":
                try:
                    degrees = [int(x) for x in qt["degrees"].split()]
                except (KeyError, ValueError):
                    self._fail("quotients", "degrees", "random provider needs degrees")
                seed = int(qt.get("seed", 0))
                qs = tuple(
                    random_quotient(self.family, dd, seed + i)
                    for i, dd in enumerate(degrees)
                )
                try:
                    self.quotients = QuotientSequence(qs, chain=False)
                except ValueError as exc:
                    self._fail("quotients", "degrees", str(exc))
            else:
                self._fail("quotients", "provider", "unknown provider %r" % provider)

        # ---- run ----
        rn = self.sections.get("run")
        if not rn or "pipeline" not in rn:
            raise ConfigError("missing [run] pipeline", self.path)
        pipeline = rn["pipeline"]
        if pipeline not in PIPELINES:
            self._fail("run", "pipeline", "unknown pipeline %r" % pipeline)
        opts = {
            "pipeline": pipeline,
            "j": int(rn.get("j", 0)),
            "primes": int(rn.get("primes", 3)),
            "dense_threshold": int(rn.get("dense_threshold", 500)),
            "max_rounds": int(rn.get("max_rounds", 3)),
            "seed": int(rn.get("seed", 0)),
            "size_cap": int(rn.get("size_cap", DEFAULT_SIZE_CAP)),
            "dump_matrices": rn.get("dump_matrices", "false").lower() == "true",
        }
        bits = rn.get("prime_bits", "50 62").split()
        if len(bits) != 2:
            self._fail("run", "prime_bits", "needs two integers")
        opts["prime_bits"] = (int(bits[0]), int(bits[1]))
        if rn.get("pairs"):
            pairs = []
            for part in rn["pairs"].split(";"):
                sides = part.split(",")
                if len(sides) != 2:
                    self._fail("run", "pairs", "each pair needs two elements")
                pairs.append(
                    (
                        self._parse_element("run", "pairs", sides[0]),
                        self._parse_element("run", "pairs", sides[1]),
                    )
                )
            opts["pairs"] = pairs
        self.options = opts

    # ---- normalization ----
    def normalized_text(self):
        out = []
        fam = self.family
        out.append("[group]")
        if isinstance(fam, Free):
            out.append("family = free")
            out.append("rank = %d" % fam.rank)
            out.append("names = %s" % " ".join(fam.gen_names))
        elif isinstance(fam, FreeAbelian):
            out.append("family = free_abelian")
            out.append("rank = %d" % fam.rank)
            out.append("names = %s" % " ".join(fam.gen_names))
        else:
            out.append("family = finite_table")
            out.append("table = %s" % self.table_path)
        if self.complex is not None:
            out.append("")
            out.append("[complex]")
            out.append("ranks = %s" % " ".join(str(n) for n in self.complex.ranks))
            k = self.complex.top_degree
            for j in range(k, 0, -1):
                out.append("d%d = %s" % (j, _matrix_text(self.complex.differential(j))))
            if self.kernel is not None:
                out.append("kernel = %s" % _matrix_text(self.kernel))
        if self.module is not None:
            out.append("")
            out.append("[module]")
            out.append("free_rank = %d" % self.module.free_rank)
            if self.module.relations is not None:
                out.append("relations = %s" % _matrix_text(self.module.relations))
            for key, spec in (
                ("generators", self.generators),
                ("a_gens", self.a_gens),
                ("b_gens", self.b_gens),
            ):
                if spec is not None:
                    rows = " ; ".join(
                        ", ".join(str(x) for x in vec) for vec in spec.generators
                    )
                    out.append("%s = %s" % (key, rows))
            if self.f_set is not None:
                out.append("f_set = %s" % " ; ".join(repr(g) for g in self.f_set))
            if self.window is not None:
                out.append("window = %s" % " ; ".join(repr(g) for g in self.window))
        if self.quotients is not None:
            out.append("")
            out.append("[quotients]")
            qt = self.sections.get("quotients", {})
            out.append("provider = %s" % qt.get("provider"))
            for key in ("moduli", "degrees", "seed"):
                if key in qt:
                    out.append("%s = %s" % (key, " ".join(qt[key].split())))
        out.append("")
        out.append("[run]")
        o = self.options
        out.append("pipeline = %s" % o["pipeline"])
        out.append("j = %d" % o["j"])
        if "pairs" in o:
            out.append(
                "pairs = %s"
                % " ; ".join("%r, %r" % (s, t) for s, t in o["pairs"])
            )
        out.append("primes = %d" % o["primes"])
        out.append("prime_bits = %d %d" % o["prime_bits"])
        out.append("dense_threshold = %d" % o["dense_threshold"])
        out.append("max_rounds = %d" % o["max_rounds"])
        out.append("seed = %d" % o["seed"])
        out.append("size_cap = %d" % o["size_cap"])
        out.append("dump_matrices = %s" % ("true" if o["dump_matrices"] else "false"))
        return "\n".join(out) + "\n"

    def policy(self):
        o = self.options
        return RankPolicy(
            primes_count=o["primes"],
            prime_bits=o["prime_bits"],
            dense_threshold=o["dense_threshold"],
            max_rounds=o["max_rounds"],
            seed=o["seed"],
        )


def _matrix_text(m):
    return " ; ".join(", ".join(str(x) for x in row) for row in m.entries)


def load_config(path):
    return JobConfig(*_read_sections(path))


def _read_sections(path):
    """JobConfig's (sections, path, base_dir, lines) for the file at path."""
    with open(path) as fh:
        sections, lines = _parse_sections(fh.read(), path)
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

    def need(attr, what):
        value = getattr(config, attr)
        if value is None:
            raise ConfigError(
                "pipeline %s needs %s" % (pipeline, what), config.path
            )
        return value

    if pipeline in ("betti", "mrk_j", "euler", "defect", "oracle"):
        C = need("complex", "a [complex] section")
    if pipeline in ("vrk", "relative", "meanrank"):
        M = need("module", "a [module] section")
    if pipeline != "oracle":
        Q = need("quotients", "a [quotients] section")

    if pipeline == "betti":
        series.append(betti_approximants(C, Q, o["j"], policy, cap))
    elif pipeline == "mrk_j":
        series.append(mrk_j_approximants(C, Q, o["j"], policy, cap))
    elif pipeline == "vrk":
        series.append(vrk_approximants(M, Q, policy, cap))
    elif pipeline == "relative":
        gens = need("generators", "[module] generators")
        series.append(relative_vrk_approximants(M, gens, Q, policy, cap))
    elif pipeline == "euler":
        chi = euler_characteristic(C)
        summary.append("chi = %d" % chi)
        series.extend(euler_approximants(C, Q, policy, cap))
    elif pipeline == "defect":
        series.append(juzvinskii_defect(C, Q, config.kernel, policy, cap))
    elif pipeline == "meanrank":
        a = need("a_gens", "[module] a_gens")
        b = need("b_gens", "[module] b_gens")
        fset = need("f_set", "[module] f_set")
        points = tuple(
            literal_mean_rank_point(M, a, b, fset, q, config.window, policy, cap)
            for q in Q
        )
        series.append(ApproximantSeries("literal_mean_rank", points, Q.chain))
    elif pipeline == "soficity":
        pairs = o.get("pairs")
        if not pairs:
            raise ConfigError("soficity pipeline needs [run] pairs", config.path)
        mult_rows = {}
        sep_rows = {}
        for q in Q:
            for defect in soficity_defect(q, pairs):
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
        if not isinstance(config.family, FiniteTable):
            raise ConfigError("oracle pipeline needs a finite_table family", config.path)
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

    if o["dump_matrices"] and config.complex is not None and config.quotients is not None:
        for qi, q in enumerate(config.quotients):
            for j in range(1, config.complex.top_degree + 1):
                m = linearize(config.complex.differential(j), q, cap)
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
    parser.add_argument("--size-cap", type=int, help="override linearization size cap")
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
        for key, value in run_keys.items():
            if value is not None:
                sections.setdefault("run", {})[key] = str(value)
        if args.seed is not None and sections.get("quotients", {}).get("provider") == "random":
            # the seed drives both the rank policy and any random models
            sections["quotients"]["seed"] = str(args.seed)
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
