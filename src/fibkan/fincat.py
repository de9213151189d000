"""Finite categories, functors, nerves, under-categories and fibered models.

Categories are given by explicit total composition tables, so validation,
cartesianness and all extension/flabbiness properties are decided by
exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


class CategoryError(ValueError):
    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class FiberedModelError(ValueError):
    pass


@dataclass(frozen=True)
class Morphism:
    name: str
    source: str
    target: str


class FinCategory:
    """Finite category: named objects/morphisms plus a total composition table.

    compose maps (g, f) with source(g) = target(f) to the name of g after f.
    A category is read only, so the index of its arrows by endpoints (the
    arrows into each object and each hom-set, in listing order), built on
    first use, stays valid; the scans below read it, not every arrow.
    """

    def __init__(self, objects, morphisms, identity, compose):
        self.objects = tuple(objects)
        self.morphisms = {}
        for m in morphisms:
            if not isinstance(m, Morphism):
                m = Morphism(*m)
            if m.name in self.morphisms:
                raise CategoryError(f"duplicate morphism name {m.name!r}")
            self.morphisms[m.name] = m
        self.identity = dict(identity)
        self.compose = dict(compose)
        if len(set(self.objects)) != len(self.objects):
            raise CategoryError("duplicate object names")

    # --- basic accessors -------------------------------------------------

    def source(self, g: str) -> str:
        return self.morphisms[g].source

    def target(self, g: str) -> str:
        return self.morphisms[g].target

    def id_of(self, obj: str) -> str:
        return self.identity[obj]

    def is_identity(self, g: str) -> bool:
        return self.identity.get(self.morphisms[g].source) == g

    def comp(self, g: str, f: str) -> str:
        """Name of g composed after f."""
        return self.compose[(g, f)]

    def comp_chain(self, names) -> str:
        """Compose a tuple (g1, ..., gn) with source(g_i) = target(g_{i+1})."""
        names = list(names)
        out = names.pop()
        while names:
            out = self.comp(names.pop(), out)
        return out

    @cached_property
    def _ends(self):
        """({b: arrows into b}, {(a, b): hom(a, b)}), in listing order."""
        into, homs = {}, {}
        for m in self.morphisms.values():
            into.setdefault(m.target, []).append(m.name)
            homs.setdefault((m.source, m.target), []).append(m.name)
        return into, homs

    def hom(self, a: str, b: str):
        return list(self._ends[1].get((a, b), ()))

    def morphisms_into(self, b: str):
        return list(self._ends[0].get(b, ()))

    def is_groupoid(self) -> bool:
        return all(self.inverse(g) is not None for g in self.morphisms)

    def inverse(self, g: str):
        m = self.morphisms[g]
        for h in self._ends[1].get((m.target, m.source), ()):
            if (self.comp(h, g) == self.id_of(m.source)
                    and self.comp(g, h) == self.id_of(m.target)):
                return h
        return None

    # --- validation ------------------------------------------------------

    def violations(self):
        """Why this is no category, in listing order: the arrows, then the
        composable pairs (g, f) and triples (h, g, f) of the index, each
        walked in the listing order of g, then f."""
        out = []
        for obj in self.objects:
            e = self.identity.get(obj)
            if e is None or e not in self.morphisms:
                out.append(f"missing identity for object {obj!r}")
                continue
            m = self.morphisms[e]
            if m.source != obj or m.target != obj:
                out.append(f"identity {e!r} of {obj!r} is not an endomorphism")
        for m in self.morphisms.values():
            if m.source not in self.objects or m.target not in self.objects:
                out.append(f"morphism {m.name!r} references unknown object")
        names = self.morphisms.keys()
        for (g, f), h in self.compose.items():
            if g not in names or f not in names or h not in names:
                out.append(f"composition entry ({g!r},{f!r})={h!r} references unknown morphism")
                continue
            if self.source(g) != self.target(f):
                out.append(f"composition entry ({g!r},{f!r}) is not composable")
            elif (self.source(h) != self.source(f)
                  or self.target(h) != self.target(g)):
                out.append(f"composition entry ({g!r},{f!r})={h!r} is ill-typed")
        into = self._ends[0]
        for g, m in self.morphisms.items():
            out.extend(f"composition table missing entry ({g!r},{f!r})"
                       for f in into.get(m.source, ())
                       if (g, f) not in self.compose)
        if out:
            return out
        for m in self.morphisms.values():
            if self.comp(m.name, self.id_of(m.source)) != m.name:
                out.append(f"unit axiom fails: {m.name!r} after identity")
            if self.comp(self.id_of(m.target), m.name) != m.name:
                out.append(f"unit axiom fails: identity after {m.name!r}")
        # post[g] maps each f into source(g) to g after f; (h, g) is
        # associative on every f at once when post[h] after post[g] is
        # post[h after g], and only a pair that is not walks its f
        post = {g: {f: self.compose[g, f] for f in into.get(m.source, ())}
                for g, m in self.morphisms.items()}
        for h, m in self.morphisms.items():
            ph = post[h]
            for g in into.get(m.source, ()):
                pg, phg = post[g], post[ph[g]]
                if {f: ph[x] for f, x in pg.items()} != phg:
                    out.extend(f"associativity fails on ({h!r},{g!r},{f!r})"
                               for f, x in pg.items() if ph[x] != phg[f])
        return out


def nerve(cat: FinCategory, n: int):
    """Composable n-tuples of non-identity arrows (g1,...,gn) with
    source(g_i) = target(g_{i+1}): the normalized nerve.

    Degree 0 returns the objects. Lexicographic order throughout: a tuple
    grows by the sorted non-identity arrows into its last arrow's source.
    """
    if n < 0:
        raise ValueError("nerve degree must be nonnegative")
    if n == 0:
        return sorted(cat.objects)
    arrows = sorted(g for g in cat.morphisms if not cat.is_identity(g))
    into = {b: sorted(g for g in cat.morphisms_into(b) if not cat.is_identity(g))
            for b in {cat.source(g) for g in arrows}}
    tuples = [(g,) for g in arrows]
    for _ in range(n - 1):
        tuples = [t + (g,) for t in tuples for g in into[cat.source(t[-1])]]
    return tuples


class CatFunctor:
    def __init__(self, source: FinCategory, target: FinCategory,
                 object_map, morphism_map):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.morphism_map = dict(morphism_map)

    def on_obj(self, obj: str) -> str:
        return self.object_map[obj]

    def on_mor(self, g: str) -> str:
        return self.morphism_map[g]

    def violations(self):
        out = []
        for obj in self.source.objects:
            if self.object_map.get(obj) not in self.target.objects:
                out.append(f"object {obj!r} has no valid image")
        for g, m in self.source.morphisms.items():
            img = self.morphism_map.get(g)
            if img not in self.target.morphisms:
                out.append(f"morphism {g!r} has no valid image")
                continue
            if (self.target.source(img) != self.object_map.get(m.source)
                    or self.target.target(img) != self.object_map.get(m.target)):
                out.append(f"image of {g!r} has wrong source/target")
        if out:
            return out
        for obj in self.source.objects:
            if self.on_mor(self.source.id_of(obj)) != self.target.id_of(self.on_obj(obj)):
                out.append(f"identity of {obj!r} not preserved")
        for (g, f), h in self.source.compose.items():
            if self.target.comp(self.on_mor(g), self.on_mor(f)) != self.on_mor(h):
                out.append(f"composition ({g!r},{f!r}) not preserved")
        return out


def validate_functor(source, target, object_map, morphism_map) -> CatFunctor:
    fun = CatFunctor(source, target, object_map, morphism_map)
    violations = fun.violations()
    if violations:
        raise CategoryError("invalid functor", violations)
    return fun


@dataclass(frozen=True)
class LocStructure:
    """Base category with declared causal cospans and Cauchy morphisms.

    Each causal cospan is a sorted pair of morphism names.
    """

    base: FinCategory
    causal_cospans: tuple
    cauchy: frozenset

    def violations(self):
        out = []
        cat = self.base
        for f1, f2 in self.causal_cospans:
            if f1 not in cat.morphisms or f2 not in cat.morphisms:
                out.append(
                    f"causal cospan {[f1, f2]!r} references unknown morphism")
            elif cat.target(f1) != cat.target(f2):
                out.append(f"causal cospan {[f1, f2]!r} does not share a target")
        cauchy = sorted(self.cauchy)
        for f in cauchy:
            if f not in cat.morphisms:
                out.append(f"cauchy morphism {f!r} unknown")
        if out:
            return out
        for obj in cat.objects:
            if cat.id_of(obj) not in self.cauchy:
                out.append(f"identity of {obj!r} not declared Cauchy")
        for g in cauchy:
            for f in cauchy:
                if cat.source(g) == cat.target(f) and cat.comp(g, f) not in self.cauchy:
                    out.append(f"cauchy set not closed under ({g!r},{f!r})")
        return out


def _names(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def validate_loc_structure(base, causal_cospans, cauchy) -> LocStructure:
    """The base structure as read from JSON: causal_cospans an array of
    arrays of two morphism names, cauchy an array of morphism names."""
    if not isinstance(causal_cospans, list):
        violations = ["causal_cospans is not an array"]
    else:
        violations = [
            f"causal cospan {pair!r} is not an array of two morphism names"
            for pair in causal_cospans if not (_names(pair) and len(pair) == 2)]
    if not _names(cauchy):
        violations.append("cauchy is not an array of morphism names")
    if not violations:
        loc = LocStructure(
            base, tuple(tuple(sorted(pair)) for pair in causal_cospans),
            frozenset(cauchy))
        violations = loc.violations()
    if violations:
        raise CategoryError("invalid base structure", violations)
    return loc


# --- under-categories ----------------------------------------------------


@dataclass
class UnderCategory:
    """M down pi: objects (S, h: M -> pi(S)), morphisms (g, h) over Str."""

    cat: FinCategory
    obj_info: dict    # name -> (S, h)
    mor_info: dict    # name -> (g, h_at_source)

    @staticmethod
    def obj_name(S, h):
        return f"({S},{h})"

    @staticmethod
    def mor_name(g, h):
        return f"({g},{h})"


def under_category(pi: CatFunctor, M: str) -> UnderCategory:
    loc, strcat = pi.target, pi.source
    if M not in loc.objects:
        raise CategoryError(f"unknown base object {M!r}")
    obj_name, mor_name = UnderCategory.obj_name, UnderCategory.mor_name
    obj_info = {}
    for S in strcat.objects:
        for h in loc.hom(M, pi.on_obj(S)):
            obj_info[obj_name(S, h)] = (S, h)
    mor_info = {}
    morphisms = []
    identity = {}
    for name, (S, h) in obj_info.items():
        for g, m in strcat.morphisms.items():
            if m.source != S:
                continue
            h_target = loc.comp(pi.on_mor(g), h)
            src = name
            tgt = obj_name(m.target, h_target)
            mname = mor_name(g, h)
            mor_info[mname] = (g, h)
            morphisms.append(Morphism(mname, src, tgt))
            if g == strcat.id_of(S):
                identity[name] = mname
    # composable pairs only, in the order of all pairs (m2, m1)
    into = {}
    for m1 in morphisms:
        into.setdefault(m1.target, []).append(m1.name)
    compose = {}
    by_name = {m.name: m for m in morphisms}
    for m2 in morphisms:
        g2, _ = mor_info[m2.name]
        for m1 in into.get(m2.source, ()):
            g1, h1 = mor_info[m1]
            compose[(m2.name, m1)] = mor_name(strcat.comp(g2, g1), h1)
    cat = FinCategory(sorted(obj_info), [by_name[k] for k in sorted(by_name)],
                      identity, compose)
    return UnderCategory(cat, obj_info, mor_info)


# --- fibered models ------------------------------------------------------


def is_cartesian(pi: CatFunctor, g: str) -> bool:
    """The unique-factorization property of g: S -> T, counted per source
    object S2: each pair (g', f~) of g' in hom(S2, T) and f~ in
    hom(pi S2, pi S) with pi(g) after f~ = pi(g') has exactly one h in
    hom(S2, S) with (g after h, pi(h)) = (g', f~). As pi is a functor
    (validate_functor checks it at every caller), each h gives such a pair,
    so that holds exactly when the pairs of hom(S2, S) are distinct and as
    many as all such pairs."""
    strcat, base = pi.source, pi.target
    homs, mor = strcat._ends[1], pi.morphism_map
    S, T = strcat.source(g), strcat.target(g)
    for S2 in strcat.objects:
        lifts = homs.get((S2, S), ())
        keys = {(strcat.compose[g, h], mor[h]) for h in lifts}
        after = [base.compose[mor[g], f]
                 for f in base.hom(pi.on_obj(S2), pi.on_obj(S))]
        pairs = sum(after.count(mor[g2]) for g2 in homs.get((S2, T), ()))
        if not len(keys) == len(lifts) == pairs:
            return False
    return True


@dataclass
class FiberedModel:
    """Validated fibered-in-groupoids functor with a deterministic cleavage."""

    pi: CatFunctor
    cleavage: dict  # (S_prime, f) -> (pullback_object, lift_morphism)
    order: str = "normal"
    _memo: dict = field(default_factory=dict)

    @property
    def strcat(self) -> FinCategory:
        return self.pi.source

    @property
    def loc(self) -> FinCategory:
        return self.pi.target

    def fiber(self, M: str) -> FinCategory:
        """The groupoid of objects over M and the arrows over its identity."""
        def build():
            strcat = self.strcat
            objs = sorted(S for S in strcat.objects if self.pi.on_obj(S) == M)
            morphs = [
                m for m in strcat.morphisms.values()
                if m.source in objs and m.target in objs
                and self.loc.is_identity(self.pi.on_mor(m.name))
            ]
            names = {m.name for m in morphs}
            compose = {
                key: val for key, val in strcat.compose.items()
                if key[0] in names and key[1] in names
            }
            identity = {obj: strcat.id_of(obj) for obj in objs}
            return FinCategory(objs, morphs, identity, compose)
        return self.memo(("fiber", M), build)

    def under(self, M: str) -> UnderCategory:
        """The category of objects under M."""
        return self.memo(("under", M), lambda: under_category(self.pi, M))

    def memo(self, key, build):
        """build(), computed once per key for this model: its fibers and
        under-categories, and data that other layers derive from it, such as
        kan.u_objects."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def lift(self, S_prime: str, f: str):
        """(f*S', f_*) for the base morphism f into pi(S')."""
        return self.cleavage[(S_prime, f)]

    def solve_cartesian(self, g: str, g_prime: str, f_tilde: str) -> str:
        """Unique g_tilde with pi(g_tilde)=f_tilde and g after g_tilde = g_prime."""
        strcat, mor = self.strcat, self.pi.morphism_map
        lifts = [h for h in strcat.hom(strcat.source(g_prime), strcat.source(g))
                 if mor[h] == f_tilde and strcat.comp(g, h) == g_prime]
        if len(lifts) != 1:
            raise FiberedModelError(
                f"expected a unique lift of {g_prime!r} through {g!r}, found {len(lifts)}"
            )
        return lifts[0]


def build_fibered_model(pi: CatFunctor, order: str = "normal") -> FiberedModel:
    if order not in ("normal", "reversed"):
        raise ValueError("order must be 'normal' or 'reversed'")
    strcat, loc = pi.source, pi.target
    # fibers must be groupoids
    for g, m in strcat.morphisms.items():
        if not loc.is_identity(pi.on_mor(g)):
            continue
        inv = strcat.inverse(g)
        if inv is None or not loc.is_identity(pi.on_mor(inv)):
            raise FiberedModelError(f"fiber morphism {g!r} is not invertible in its fiber")
    pick = min if order == "normal" else max
    cleavage = {}
    for S_prime in strcat.objects:
        for f in loc.morphisms_into(pi.on_obj(S_prime)):
            if f == loc.id_of(loc.source(f)):
                lift = strcat.id_of(S_prime)
                if not is_cartesian(pi, lift):
                    raise FiberedModelError(f"identity of {S_prime!r} is not cartesian")
                cleavage[(S_prime, f)] = (S_prime, lift)
                continue
            candidates = [
                g for g in strcat.morphisms_into(S_prime)
                if pi.on_mor(g) == f and is_cartesian(pi, g)
            ]
            if not candidates:
                raise FiberedModelError(
                    f"no cartesian lift of {f!r} with target {S_prime!r}"
                )
            g = pick(candidates)
            cleavage[(S_prime, f)] = (strcat.source(g), g)
    return FiberedModel(pi, cleavage, order)


# --- pullbacks of arrows -------------------------------------------------


def pullback_fiber_square(fm: FiberedModel, f: str, g: str) -> str:
    """The fiber arrow over source(f) closing the cleavage square of g.

    g: S1 -> S0 is an arrow of Str with pi(S1) = target(f); the result is the
    unique arrow f*S1 -> (pi(g) after f)*S0 with lift(S0, pi(g) after f)
    after it equal to g after lift(S1, f).
    """
    strcat, base = fm.strcat, fm.loc
    _, lift0 = fm.lift(strcat.target(g), base.comp(fm.pi.on_mor(g), f))
    _, lift1 = fm.lift(strcat.source(g), f)
    return fm.solve_cartesian(lift0, strcat.comp(g, lift1),
                              base.id_of(base.source(f)))


# --- flabbiness ----------------------------------------------------------


@dataclass(frozen=True)
class FlabbinessReport:
    flabby: bool
    flabby_counterexample: tuple | None
    cauchy_flabby: bool
    cauchy_counterexample: tuple | None
    strongly_cauchy_flabby: bool
    strong_counterexample: tuple | None


def _extensions(fm: FiberedModel, S: str, f: str):
    """The arrows out of S over f, sorted: hom(S, T) over the objects T
    above the target of f."""
    strcat, pi, M = fm.strcat, fm.pi, fm.loc.target(f)
    return sorted(g for T in strcat.objects if pi.on_obj(T) == M
                  for g in strcat.hom(S, T) if pi.on_mor(g) == f)


def _closings(fm: FiberedModel, g: str, y: str):
    """The arrows x of the fiber over pi(target(y)) with x after g = y."""
    strcat = fm.strcat
    fiber = fm.fiber(fm.pi.on_obj(strcat.target(y)))
    return [x for x in fiber.hom(strcat.target(g), strcat.target(y))
            if strcat.comp(x, g) == y]


def classify_flabbiness(fm: FiberedModel, loc: LocStructure) -> FlabbinessReport:
    strcat, base = fm.strcat, fm.loc
    flabby, flabby_ce = True, None
    for S in strcat.objects:
        for f in base.morphisms:
            if base.source(f) != fm.pi.on_obj(S):
                continue
            if not _extensions(fm, S, f):
                flabby, flabby_ce = False, (S, f)
                break
        if not flabby:
            break

    cauchy_ok, cauchy_ce = True, None
    strong_ok, strong_ce = True, None
    for S in strcat.objects:
        for f in sorted(loc.cauchy):
            if base.source(f) != fm.pi.on_obj(S):
                continue
            exts = _extensions(fm, S, f)
            if not exts:
                cauchy_ok, cauchy_ce = False, (S, f)
                continue
            for g in exts:
                for g_tilde in exts:
                    closing = _closings(fm, g, g_tilde)
                    if not closing:
                        cauchy_ok, cauchy_ce = False, (S, f, g, g_tilde)
                    elif len(closing) > 1:
                        strong_ok, strong_ce = False, (S, f, g, g_tilde)
    if not cauchy_ok:
        strong_ok = False
        strong_ce = strong_ce or cauchy_ce
    return FlabbinessReport(flabby, flabby_ce, cauchy_ok, cauchy_ce,
                            strong_ok, strong_ce)


def flabbiness_report(fm: FiberedModel, loc: LocStructure) -> FlabbinessReport:
    """classify_flabbiness, run once per model and base structure."""
    return fm.memo(("flabbiness", loc), lambda: classify_flabbiness(fm, loc))


# --- extension data along Cauchy morphisms --------------------------------


@dataclass(frozen=True)
class ExtensionData:
    obj_map: dict   # S -> (ext_f S, f_sharp)
    mor_map: dict   # fiber g over source(f) -> ext_f g


def extension_data(fm: FiberedModel, loc: LocStructure, f: str) -> ExtensionData:
    if f not in loc.cauchy:
        raise FiberedModelError(f"{f!r} is not a Cauchy morphism")
    if not flabbiness_report(fm, loc).strongly_cauchy_flabby:
        raise FiberedModelError("model is not strongly Cauchy flabby")
    strcat, base = fm.strcat, fm.loc
    M, M_prime = base.source(f), base.target(f)
    pick = min if fm.order == "normal" else max
    obj_map = {}
    for S in fm.fiber(M).objects:
        exts = _extensions(fm, S, f)
        if not exts:
            raise FiberedModelError(f"no extension of {S!r} along {f!r}")
        f_sharp = pick(exts)
        obj_map[S] = (strcat.target(f_sharp), f_sharp)
    mor_map = {}
    for g in fm.fiber(M).morphisms:
        _, sharp_S = obj_map[strcat.source(g)]
        _, sharp_St = obj_map[strcat.target(g)]
        candidates = _closings(fm, sharp_S, strcat.comp(sharp_St, g))
        if len(candidates) != 1:
            raise FiberedModelError(
                f"extension of {g!r} along {f!r} is not unique ({len(candidates)} found)"
            )
        mor_map[g] = candidates[0]
    # functoriality
    fiber, fiber_prime = fm.fiber(M), fm.fiber(M_prime)
    for S in fiber.objects:
        if mor_map[fiber.id_of(S)] != fiber_prime.id_of(obj_map[S][0]):
            raise FiberedModelError(
                f"extension along {f!r} does not preserve the identity of {S!r}")
    for (g1, g2), g12 in fiber.compose.items():
        if fiber_prime.comp(mor_map[g1], mor_map[g2]) != mor_map[g12]:
            raise FiberedModelError(
                f"extension along {f!r} does not preserve {g1!r} after {g2!r}")
    return ExtensionData(obj_map, mor_map)


def lemma_witnesses(fm: FiberedModel, f: str, ext: ExtensionData):
    """Unique closing arrows for the two extension triangles along f.

    Returns (into, outof): into[S] is the fiber arrow S -> f*ext_f S with
    f_* after it equal to f_sharp; outof[S'] is the fiber arrow
    S' -> ext_f f*S' with it after f_* equal to f_sharp at f*S'.
    """
    base = fm.loc
    M, M_prime = base.source(f), base.target(f)
    into = {}
    for S in fm.fiber(M).objects:
        ext_S, f_sharp = ext.obj_map[S]
        _, lift = fm.lift(ext_S, f)
        into[S] = fm.solve_cartesian(lift, f_sharp, base.id_of(M))
    outof = {}
    for S_prime in fm.fiber(M_prime).objects:
        pb, lift = fm.lift(S_prime, f)
        candidates = _closings(fm, lift, ext.obj_map[pb][1])
        if len(candidates) != 1:
            raise FiberedModelError(
                f"triangle witness at {S_prime!r} not unique ({len(candidates)} found)"
            )
        outof[S_prime] = candidates[0]
    return into, outof


def connected_components(groupoid: FinCategory):
    """pi_0 of a groupoid: object classes under existence of a morphism."""
    if not groupoid.is_groupoid():
        raise CategoryError("input category is not a groupoid")
    parent = {obj: obj for obj in groupoid.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in groupoid.morphisms.values():
        a, b = find(m.source), find(m.target)
        if a != b:
            parent[max(a, b)] = min(a, b)
    classes = {}
    for obj in groupoid.objects:
        classes.setdefault(find(obj), []).append(obj)
    return sorted(tuple(sorted(v)) for v in classes.values())
