"""TPC-H-lite and TPC-DS-lite query templates as logical-plan builders.

Each template reproduces the *plan shape* of the corresponding benchmark
query (scan set, join tree depth, aggregation/sort tail) with calibrated
selectivities; the simulator only consumes shapes and cardinalities, so
this is the faithful laptop-scale substitute for running the SQL text on a
cluster (see DESIGN.md).

``variant > 0`` produces a *parametric query* (paper §6 "Workloads"):
the same template with jittered predicate selectivities, join fanouts and
group ratios — used to generate model-training traces.
"""
from __future__ import annotations

from repro.core.operators import LogicalPlan, PlanBuilder, _lognormal


def _jit(base: float, name: str, variant: int, tag: str, *, lo: float = 1e-5) -> float:
    """Jitter a selectivity-like quantity for parametric variants."""
    if variant == 0:
        return base
    return min(max(base * _lognormal(0.0, 0.3, "jit", name, variant, tag), lo), 1.0)


def _jf(base: float, name: str, variant: int, tag: str) -> float:
    """Jitter a join fanout (may exceed 1)."""
    if variant == 0:
        return base
    return max(1e-5, base * _lognormal(0.0, 0.3, "jitf", name, variant, tag))


# --------------------------------------------------------------------------
# TPC-H-lite: 22 templates mirroring the official query shapes.
# --------------------------------------------------------------------------

def _tpch(qname: str, sf: float, variant: int) -> LogicalPlan:
    b = PlanBuilder("tpch", f"tpch_{qname}#v{variant}", sf=sf, seed=variant)
    n = b.name  # template+variant key for jitter

    def F(base, tag, **kw):
        return _jit(base, n, variant, tag, **kw)

    def J(base, tag):
        return _jf(base, n, variant, tag)

    if qname == "q1":
        li = b.filter(b.scan("lineitem"), F(0.98, "li"), "l_shipdate <= :1")
        root = b.sort(b.agg(li, F(1e-6, "g", lo=1e-9), "returnflag,linestatus"))
    elif qname == "q2":
        ps = b.scan("partsupp")
        p = b.filter(b.scan("part"), F(0.013, "p"), "p_size=:1 and p_type like :2")
        s = b.scan("supplier")
        na = b.scan("nation")
        re = b.filter(b.scan("region"), F(0.2, "r"), "r_name=:3")
        j1 = b.join(ps, p, J(0.013, "j1"), "ps_partkey=p_partkey")
        j2 = b.join(j1, s, J(1.0, "j2"), "ps_suppkey=s_suppkey")
        j3 = b.join(j2, na, J(1.0, "j3"), "s_nationkey=n_nationkey")
        j4 = b.join(j3, re, J(0.2, "j4"), "n_regionkey=r_regionkey")
        mn = b.agg(j4, F(0.25, "mn"), "min supplycost per part")
        j5 = b.join(j4, mn, J(0.25, "j5"), "min-cost match")
        root = b.limit_(b.sort(j5), 100)
    elif qname == "q3":
        c = b.filter(b.scan("customer"), F(0.2, "c"), "c_mktsegment=:1")
        o = b.filter(b.scan("orders"), F(0.48, "o"), "o_orderdate < :2")
        li = b.filter(b.scan("lineitem"), F(0.54, "l"), "l_shipdate > :2")
        j1 = b.join(c, o, J(0.2, "j1"), "c_custkey=o_custkey")
        j2 = b.join(j1, li, J(0.3, "j2"), "l_orderkey=o_orderkey")
        root = b.limit_(b.sort(b.agg(j2, F(0.8, "g"), "orderkey,orderdate,shippriority")), 10)
    elif qname == "q4":
        o = b.filter(b.scan("orders"), F(0.038, "o"), "o_orderdate in quarter")
        li = b.filter(b.scan("lineitem"), F(0.63, "l"), "l_commitdate < l_receiptdate")
        j1 = b.join(o, li, J(0.035, "j1"), "semi l_orderkey=o_orderkey")
        root = b.sort(b.agg(j1, F(1e-5, "g", lo=1e-9), "o_orderpriority"))
    elif qname == "q5":
        c = b.scan("customer")
        o = b.filter(b.scan("orders"), F(0.15, "o"), "o_orderdate in year")
        li = b.scan("lineitem")
        s = b.scan("supplier")
        na = b.scan("nation")
        re = b.filter(b.scan("region"), F(0.2, "r"), "r_name=:1")
        j1 = b.join(c, o, J(0.15, "j1"), "c_custkey=o_custkey")
        j2 = b.join(j1, li, J(0.6, "j2"), "l_orderkey=o_orderkey")
        j3 = b.join(j2, s, J(0.04, "j3"), "l_suppkey=s_suppkey and nation match")
        j4 = b.join(j3, na, J(1.0, "j4"), "s_nationkey=n_nationkey")
        j5 = b.join(j4, re, J(0.2, "j5"), "n_regionkey=r_regionkey")
        root = b.sort(b.agg(j5, F(1e-5, "g", lo=1e-9), "n_name"))
    elif qname == "q6":
        li = b.filter(b.scan("lineitem"), F(0.019, "l"), "shipdate+discount+qty range")
        root = b.agg(li, F(1e-9, "g", lo=1e-12), "sum(revenue)")
    elif qname == "q7":
        s = b.scan("supplier")
        li = b.filter(b.scan("lineitem"), F(0.3, "l"), "l_shipdate between")
        o = b.scan("orders")
        c = b.scan("customer")
        n1 = b.filter(b.scan("nation"), F(0.08, "n1"), "n_name in (:1,:2)")
        n2 = b.filter(b.scan("nation"), F(0.08, "n2"), "n_name in (:1,:2)")
        j1 = b.join(s, li, J(0.3, "j1"), "s_suppkey=l_suppkey")
        j2 = b.join(j1, o, J(1.0, "j2"), "o_orderkey=l_orderkey")
        j3 = b.join(j2, c, J(1.0, "j3"), "c_custkey=o_custkey")
        j4 = b.join(j3, n1, J(0.08, "j4"), "s_nationkey=n1.nationkey")
        j5 = b.join(j4, n2, J(0.32, "j5"), "c_nationkey=n2.nationkey")
        root = b.sort(b.agg(j5, F(1e-5, "g", lo=1e-9), "supp_nation,cust_nation,year"))
    elif qname == "q8":
        p = b.filter(b.scan("part"), F(0.007, "p"), "p_type=:1")
        li = b.scan("lineitem")
        o = b.filter(b.scan("orders"), F(0.3, "o"), "o_orderdate between")
        c = b.scan("customer")
        s = b.scan("supplier")
        n1 = b.scan("nation")
        re = b.filter(b.scan("region"), F(0.2, "r"), "r_name=:2")
        n2 = b.scan("nation")
        j1 = b.join(p, li, J(0.007, "j1"), "p_partkey=l_partkey")
        j2 = b.join(j1, o, J(0.3, "j2"), "l_orderkey=o_orderkey")
        j3 = b.join(j2, c, J(1.0, "j3"), "o_custkey=c_custkey")
        j4 = b.join(j3, n1, J(1.0, "j4"), "c_nationkey=n1.nationkey")
        j5 = b.join(j4, re, J(0.2, "j5"), "n1.regionkey=r_regionkey")
        j6 = b.join(j5, s, J(1.0, "j6"), "l_suppkey=s_suppkey")
        j7 = b.join(j6, n2, J(1.0, "j7"), "s_nationkey=n2.nationkey")
        root = b.sort(b.agg(j7, F(1e-6, "g", lo=1e-9), "year"))
    elif qname == "q9":
        # Paper Fig. 3(b): 6 scans, 5 joins.
        p = b.filter(b.scan("part"), F(0.054, "p"), "p_name like :1")
        li = b.scan("lineitem")
        s = b.scan("supplier")
        ps = b.scan("partsupp")
        o = b.scan("orders")
        na = b.scan("nation")
        j1 = b.join(p, li, J(0.054, "j1"), "p_partkey=l_partkey")
        j2 = b.join(j1, s, J(1.0, "j2"), "l_suppkey=s_suppkey")
        j3 = b.join(j2, ps, J(1.0, "j3"), "ps_partkey,ps_suppkey")
        j4 = b.join(j3, o, J(1.0, "j4"), "o_orderkey=l_orderkey")
        j5 = b.join(j4, na, J(1.0, "j5"), "s_nationkey=n_nationkey")
        root = b.sort(b.agg(j5, F(1e-4, "g", lo=1e-9), "nation,year"))
    elif qname == "q10":
        c = b.scan("customer")
        o = b.filter(b.scan("orders"), F(0.038, "o"), "o_orderdate in quarter")
        li = b.filter(b.scan("lineitem"), F(0.25, "l"), "l_returnflag='R'")
        na = b.scan("nation")
        j1 = b.join(c, o, J(0.038, "j1"), "c_custkey=o_custkey")
        j2 = b.join(j1, li, J(0.25, "j2"), "l_orderkey=o_orderkey")
        j3 = b.join(j2, na, J(1.0, "j3"), "c_nationkey=n_nationkey")
        root = b.limit_(b.sort(b.agg(j3, F(0.25, "g"), "custkey,...")), 20)
    elif qname == "q11":
        ps = b.scan("partsupp")
        s = b.scan("supplier")
        na = b.filter(b.scan("nation"), F(0.04, "n"), "n_name=:1")
        j1 = b.join(ps, s, J(1.0, "j1"), "ps_suppkey=s_suppkey")
        j2 = b.join(j1, na, J(0.04, "j2"), "s_nationkey=n_nationkey")
        a1 = b.agg(j2, F(0.9, "g1"), "group by ps_partkey")
        tot = b.agg(j2, F(1e-6, "g2", lo=1e-9), "sum(value)")
        j3 = b.join(a1, tot, J(0.1, "j3"), "value > fraction*total")
        root = b.sort(j3)
    elif qname == "q12":
        o = b.scan("orders")
        li = b.filter(b.scan("lineitem"), F(0.005, "l"), "shipmode in + date range")
        j1 = b.join(o, li, J(0.005, "j1"), "l_orderkey=o_orderkey")
        root = b.sort(b.agg(j1, F(1e-6, "g", lo=1e-9), "l_shipmode"))
    elif qname == "q13":
        c = b.scan("customer")
        o = b.filter(b.scan("orders"), F(0.98, "o"), "o_comment not like :1")
        j1 = b.join(c, o, J(1.0, "j1"), "left outer c_custkey=o_custkey")
        a1 = b.agg(j1, F(0.1, "g1"), "group by c_custkey")
        root = b.sort(b.agg(a1, F(1e-3, "g2"), "group by c_count"))
    elif qname == "q14":
        li = b.filter(b.scan("lineitem"), F(0.0125, "l"), "l_shipdate month")
        p = b.scan("part")
        j1 = b.join(li, p, J(0.375, "j1"), "l_partkey=p_partkey")
        root = b.agg(j1, F(1e-9, "g", lo=1e-12), "promo ratio")
    elif qname == "q15":
        li = b.filter(b.scan("lineitem"), F(0.038, "l"), "l_shipdate quarter")
        rev = b.agg(li, F(0.044, "g1"), "group by l_suppkey")
        s = b.scan("supplier")
        mx = b.agg(rev, F(1e-4, "g2", lo=1e-9), "max(total_revenue)")
        j1 = b.join(rev, mx, J(1e-4, "j1"), "total_revenue = max")
        j2 = b.join(s, j1, J(1e-4, "j2"), "s_suppkey=supplier_no")
        root = b.sort(j2)
    elif qname == "q16":
        ps = b.scan("partsupp")
        p = b.filter(b.scan("part"), F(0.17, "p"), "brand<>:1 type not like size in")
        s = b.filter(b.scan("supplier"), F(0.999, "s"), "not in complaints")
        j1 = b.join(ps, p, J(0.17, "j1"), "ps_partkey=p_partkey")
        j2 = b.join(j1, s, J(0.999, "j2"), "anti suppkey")
        root = b.sort(b.agg(j2, F(0.2, "g"), "brand,type,size"))
    elif qname == "q17":
        li = b.scan("lineitem")
        p = b.filter(b.scan("part"), F(0.001, "p"), "p_brand=:1 and p_container=:2")
        j1 = b.join(li, p, J(0.001, "j1"), "l_partkey=p_partkey")
        avg_ = b.agg(j1, F(0.033, "g1"), "avg qty per part")
        j2 = b.join(j1, avg_, J(0.3, "j2"), "l_quantity < 0.2*avg")
        root = b.agg(j2, F(1e-9, "g2", lo=1e-12), "sum/7")
    elif qname == "q18":
        big = b.agg(b.scan("lineitem"), F(0.25, "g1"), "group l_orderkey having sum>300")
        sel = b.filter(big, F(4e-5, "hv"), "having sum(qty) > :1")
        o = b.scan("orders")
        c = b.scan("customer")
        li = b.scan("lineitem")
        j1 = b.join(o, sel, J(4e-5, "j1"), "o_orderkey in (...)")
        j2 = b.join(j1, c, J(1.0, "j2"), "c_custkey=o_custkey")
        j3 = b.join(j2, li, J(4.0, "j3"), "l_orderkey=o_orderkey")
        root = b.limit_(b.sort(b.agg(j3, F(0.25, "g2"), "by order")), 100)
    elif qname == "q19":
        li = b.filter(b.scan("lineitem"), F(0.02, "l"), "shipmode AIR + qty ranges")
        p = b.filter(b.scan("part"), F(0.012, "p"), "brand/container/size disjuncts")
        j1 = b.join(li, p, J(0.002, "j1"), "l_partkey=p_partkey and disjuncts")
        root = b.agg(j1, F(1e-9, "g", lo=1e-12), "sum(revenue)")
    elif qname == "q20":
        p = b.filter(b.scan("part"), F(0.011, "p"), "p_name like :1%")
        ps = b.scan("partsupp")
        li = b.filter(b.scan("lineitem"), F(0.15, "l"), "l_shipdate year")
        qty = b.agg(li, F(0.1, "g1"), "0.5*sum(qty) by part,supp")
        j1 = b.join(ps, p, J(0.011, "j1"), "ps_partkey=p_partkey")
        j2 = b.join(j1, qty, J(0.5, "j2"), "availqty > half qty")
        s = b.scan("supplier")
        na = b.filter(b.scan("nation"), F(0.04, "n"), "n_name=:2")
        j3 = b.join(s, na, J(0.04, "j3"), "s_nationkey=n_nationkey")
        j4 = b.join(j3, j2, J(0.04, "j4"), "semi s_suppkey in (...)")
        root = b.sort(j4)
    elif qname == "q21":
        s = b.scan("supplier")
        li1 = b.filter(b.scan("lineitem"), F(0.5, "l1"), "receipt>commit")
        o = b.filter(b.scan("orders"), F(0.49, "o"), "o_orderstatus='F'")
        na = b.filter(b.scan("nation"), F(0.04, "n"), "n_name=:1")
        li2 = b.scan("lineitem")
        li3 = b.filter(b.scan("lineitem"), F(0.5, "l3"), "receipt>commit")
        j1 = b.join(s, li1, J(0.5, "j1"), "s_suppkey=l_suppkey")
        j2 = b.join(j1, o, J(0.25, "j2"), "o_orderkey=l_orderkey")
        j3 = b.join(j2, na, J(0.04, "j3"), "s_nationkey=n_nationkey")
        j4 = b.join(j3, li2, J(0.9, "j4"), "exists other supp")
        j5 = b.join(j4, li3, J(0.5, "j5"), "not exists other late supp")
        root = b.limit_(b.sort(b.agg(j5, F(4e-4, "g"), "s_name")), 100)
    elif qname == "q22":
        c = b.filter(b.scan("customer"), F(0.25, "c"), "cntrycode in + acctbal > avg")
        o = b.agg(b.scan("orders"), F(0.066, "g1"), "distinct custkeys")
        j1 = b.join(c, o, J(0.09, "j1"), "anti o_custkey=c_custkey")
        root = b.sort(b.agg(j1, F(2e-4, "g2"), "cntrycode"))
    else:
        raise ValueError(f"unknown TPC-H template {qname!r}")
    return b.build(root)


TPCH_QUERIES = [f"q{i}" for i in range(1, 23)]


# --------------------------------------------------------------------------
# TPC-DS-lite: 30 templates from shape recipes (star joins over sales
# channels, multi-channel unions, rollups) mirroring TPC-DS plan diversity.
# --------------------------------------------------------------------------

# recipe: (channels, dims-per-channel, has_returns_join, group_ratio, sort, limit)
# channels: list of fact tables unioned (1 channel = plain star join).
_DS_RECIPES: dict[str, dict] = {
    "q1":  dict(facts=["store_returns"], dims=["date_dim", "store", "customer"], gr=0.05, sort=True, limit=100),
    "q3":  dict(facts=["store_sales"], dims=["date_dim", "item"], fsel=0.08, gr=0.002, sort=True, limit=100),
    "q6":  dict(facts=["store_sales"], dims=["date_dim", "item", "customer", "customer_address"], gr=0.001, sort=True, limit=100),
    "q7":  dict(facts=["store_sales"], dims=["date_dim", "item", "customer_demographics", "promotion"], gr=0.01, sort=True, limit=100),
    "q9":  dict(facts=["store_sales"], dims=["date_dim"], fsel=0.5, gr=1e-6, sort=False),
    "q12": dict(facts=["web_sales"], dims=["date_dim", "item"], gr=0.005, sort=True, limit=100),
    "q13": dict(facts=["store_sales"], dims=["date_dim", "store", "customer_demographics", "household_demographics", "customer_address"], gr=1e-6, sort=False),
    "q14": dict(facts=["store_sales", "catalog_sales", "web_sales"], dims=["date_dim", "item"], second_agg=True, gr=0.002, sort=True, limit=100),
    "q15": dict(facts=["catalog_sales"], dims=["date_dim", "customer", "customer_address"], gr=0.01, sort=True, limit=100),
    "q17": dict(facts=["store_sales", "store_returns", "catalog_sales"], dims=["date_dim", "item", "store"], chain=True, gr=0.01, sort=True, limit=100),
    "q18": dict(facts=["catalog_sales"], dims=["date_dim", "item", "customer", "customer_address", "customer_demographics"], gr=0.005, sort=True, limit=100),
    "q19": dict(facts=["store_sales"], dims=["date_dim", "item", "customer", "customer_address", "store"], gr=0.01, sort=True, limit=100),
    "q25": dict(facts=["store_sales", "store_returns", "catalog_sales"], dims=["date_dim", "item", "store"], chain=True, gr=0.02, sort=True, limit=100),
    "q26": dict(facts=["catalog_sales"], dims=["date_dim", "item", "customer_demographics", "promotion"], gr=0.01, sort=True, limit=100),
    "q27": dict(facts=["store_sales"], dims=["date_dim", "item", "store", "customer_demographics"], gr=0.02, sort=True, limit=100),
    "q28": dict(facts=["store_sales"], dims=[], fsel=0.3, n_selfunion=6, gr=1e-6, sort=False),
    "q33": dict(facts=["store_sales", "catalog_sales", "web_sales"], dims=["date_dim", "item", "customer_address"], second_agg=True, gr=0.001, sort=True, limit=100),
    "q42": dict(facts=["store_sales"], dims=["date_dim", "item"], gr=0.001, sort=True, limit=100),
    "q43": dict(facts=["store_sales"], dims=["date_dim", "store"], gr=1e-4, sort=True, limit=100),
    "q46": dict(facts=["store_sales"], dims=["date_dim", "store", "household_demographics", "customer_address", "customer"], gr=0.05, sort=True, limit=100),
    "q48": dict(facts=["store_sales"], dims=["store", "customer_demographics", "customer_address", "date_dim"], gr=1e-6, sort=False),
    "q52": dict(facts=["store_sales"], dims=["date_dim", "item"], gr=0.001, sort=True, limit=100),
    "q55": dict(facts=["store_sales"], dims=["date_dim", "item"], fsel=0.06, gr=0.001, sort=True, limit=100),
    "q61": dict(facts=["store_sales", "store_sales"], dims=["date_dim", "item", "customer", "customer_address", "store", "promotion"], second_agg=True, gr=1e-6, sort=False),
    "q65": dict(facts=["store_sales"], dims=["date_dim", "item", "store"], second_agg=True, gr=0.02, sort=True, limit=100),
    "q68": dict(facts=["store_sales"], dims=["date_dim", "store", "household_demographics", "customer_address", "customer"], gr=0.05, sort=True, limit=100),
    "q71": dict(facts=["web_sales", "catalog_sales", "store_sales"], dims=["date_dim", "item", "time_dim"], gr=0.005, sort=True),
    "q73": dict(facts=["store_sales"], dims=["date_dim", "store", "household_demographics", "customer"], gr=0.03, sort=True),
    "q79": dict(facts=["store_sales"], dims=["date_dim", "store", "household_demographics", "customer"], gr=0.05, sort=True, limit=100),
    "q96": dict(facts=["store_sales"], dims=["time_dim", "household_demographics", "store"], gr=1e-6, sort=False),
}

TPCDS_QUERIES = sorted(_DS_RECIPES, key=lambda q: int(q[1:]))

# Per-dimension default (selectivity applied to the dim scan, join fanout).
_DS_DIM_SEL = {
    "date_dim": 0.05, "item": 0.1, "customer": 1.0, "customer_address": 0.3,
    "customer_demographics": 0.15, "store": 0.5, "promotion": 0.3,
    "household_demographics": 0.25, "time_dim": 0.1,
}


def _tpcds(qname: str, sf: float, variant: int) -> LogicalPlan:
    r = _DS_RECIPES[qname]
    name = f"tpcds_{qname}#v{variant}"
    b = PlanBuilder("tpcds", name, sf=sf, seed=variant)

    def F(base, tag, **kw):
        return _jit(base, name, variant, tag, **kw)

    def channel(fact: str, tag: str) -> int:
        node = b.scan(fact)
        fsel = r.get("fsel")
        if fsel is not None:
            node = b.filter(node, F(fsel, f"{tag}:fsel"), f"{fact} predicate")
        for d in r["dims"]:
            dsel = _DS_DIM_SEL[d]
            dim = b.scan(d)
            if dsel < 1.0:
                dim = b.filter(dim, F(dsel, f"{tag}:{d}"), f"{d} predicate")
            node = b.join(node, dim, _jf(dsel, name, variant, f"{tag}:j:{d}"),
                          f"{fact} join {d}")
        return node

    parts: list[int] = []
    if r.get("chain"):
        # fact1 -> returns/other-fact chain (e.g., q17/q25): fact joins fact.
        node = channel(r["facts"][0], "c0")
        for i, fact2 in enumerate(r["facts"][1:], 1):
            f2 = b.scan(fact2)
            node = b.join(node, f2, _jf(0.08, name, variant, f"chain:{i}"),
                          f"chain join {fact2}")
        parts = [node]
    elif r.get("n_selfunion"):
        for i in range(r["n_selfunion"]):
            node = b.scan(r["facts"][0])
            node = b.filter(node, F(r.get("fsel", 0.2) / (i + 1), f"su{i}"), f"bucket {i}")
            parts.append(b.agg(node, F(1e-6, f"sug{i}", lo=1e-9), f"bucket {i} agg"))
    else:
        parts = [channel(f, f"c{i}") for i, f in enumerate(r["facts"])]

    node = parts[0] if len(parts) == 1 else b.union(*parts)
    node = b.agg(node, F(r["gr"], "g", lo=1e-9), "group by")
    if r.get("second_agg"):
        node = b.agg(node, F(0.2, "g2"), "re-aggregate / rollup")
    if r.get("sort"):
        node = b.sort(node)
    if r.get("limit"):
        node = b.limit_(node, r["limit"])
    return b.build(node)


def benchmark_queries(benchmark: str) -> list[str]:
    """Template names for a benchmark."""
    if benchmark == "tpch":
        return list(TPCH_QUERIES)
    if benchmark == "tpcds":
        return list(TPCDS_QUERIES)
    raise ValueError(f"unknown benchmark {benchmark!r}")


def build_query(benchmark: str, qname: str, *, sf: float = 100.0, variant: int = 0) -> LogicalPlan:
    """Build template ``qname`` of ``benchmark`` at scale ``sf``.

    ``variant=0`` is the canonical benchmark query; ``variant>0`` are the
    parametric training variants.
    """
    if benchmark == "tpch":
        return _tpch(qname, sf, variant)
    if benchmark == "tpcds":
        return _tpcds(qname, sf, variant)
    raise ValueError(f"unknown benchmark {benchmark!r}")
