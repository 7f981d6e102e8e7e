"""Relational operator coverage over the driver testdata (TESTDATA.md):
filters, multi-key groupby aggregates, broadcast joins, sorts/top-k, and a
tumbling-window aggregate on the events stream table — the engine's
general-purpose operator surface (SURVEY.md §2.5 aggregation/sort/join rows),
each with a DuckDB-checkable result (column names match the oracle SQL in
__ray_entry__).

Conventions:
- column pruning at the read (``read_parquet(columns=[...])``);
- aggregates rounded to 4 decimals on BOTH sides of the compare;
- dimension-table joins are size-gated (``joins.dim_join``): broadcast (one
  plasma replica built from Arrow block refs) while the dimension fits,
  partitioned hash join beyond — no driver-side row rebuild either way;
- groupby keys are int64/string (engine-wide key rule).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    from dynaalign_ray.exec import configure_context

    configure_context()  # datasets capture the DataContext at creation
    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def round4(col) -> pa.Array:
    """Bit-reproducible 4-decimal rounding: rint(x * 10^4) / 10^4.

    The oracle SQL uses ``round(x * 10000) / 10000`` — both sides divide the
    SAME exact integer by 10^4, so the resulting doubles are bit-identical
    (pc.round / duckdb round(x, 4) disagree in the last ulp and break
    value-hash comparison)."""
    x = np.asarray(col, dtype=np.float64)
    scaled = x * 10_000.0
    # half-away-from-zero ties, matching SQL round() (np.rint is half-to-even)
    rounded = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return pa.array(rounded / 10_000.0, type=pa.float64())


def _round_cols(ds, cols: list[str]):
    def r(batch: pa.Table) -> pa.Table:
        for c in cols:
            batch = batch.set_column(batch.column_names.index(c), c, round4(batch.column(c)))
        return batch

    return ds.map_batches(r, batch_format="pyarrow", zero_copy_batch=True)


def derived_avg(sum_col, count_col) -> pa.Array:
    """Average derived as round4(round4(sum) / count).

    A direct Mean of fixed-decimal data lands EXACTLY on .5e-4 rounding ties
    (e.g. 2-decimal values averaged over 40 rows), where the engine's and the
    oracle's last-ulp summation noise round in different directions.  The
    rounded sum is bit-identical on both sides, integer division of identical
    doubles is deterministic, and both sides round half-away — so the derived
    average is bit-identical too.  Oracle form:
    ``round((round(sum(x)*10000)/10000 / count(*)) * 10000) / 10000``.
    """
    s = np.asarray(round4(sum_col), dtype=np.float64)
    n = np.asarray(count_col, dtype=np.float64)
    return round4(s / np.maximum(n, 1.0))


def q1_pricing(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q1-style pricing summary: filter on ship date, two-key groupby,
    five aggregates over computed columns."""
    from ray.data.aggregate import Count, Mean, Sum

    li = _read(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    cutoff = np.datetime64("1998-09-01T00:00:00")

    def prep(batch: pa.Table) -> pa.Table:
        mask = pc.less_equal(batch.column("l_shipdate"), pa.scalar(cutoff))
        t = batch.filter(mask)
        disc_price = pc.multiply(
            t.column("l_extendedprice"), pc.subtract(pa.scalar(1.0), t.column("l_discount"))
        )
        return pa.table(
            {
                "l_returnflag": t.column("l_returnflag"),
                "l_linestatus": t.column("l_linestatus"),
                "l_quantity": t.column("l_quantity"),
                "l_extendedprice": t.column("l_extendedprice"),
                "l_discount": t.column("l_discount"),
                "disc_price": disc_price,
            }
        )

    agg = (
        li.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"], num_partitions=num_partitions)
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Sum("l_discount", alias_name="sum_disc"),
            Count(alias_name="count_order"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("count_order")
        return pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "sum_qty": round4(batch.column("sum_qty")),
                "sum_base_price": round4(batch.column("sum_base_price")),
                "sum_disc_price": round4(batch.column("sum_disc_price")),
                "avg_qty": derived_avg(batch.column("sum_qty"), n),
                "avg_disc": derived_avg(batch.column("sum_disc"), n),
                "count_order": n,
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def revenue_by_nation(sf_dir: str, num_partitions: int = 8):
    """orders ⋈ customer ⋈ nation.  Both dimension sides go through the
    size-gated ``dim_join``: broadcast (one plasma replica built from Arrow
    block refs — never a driver-side row rebuild) while the table fits the
    limit, partitioned hash join beyond it (customer scales with sf)."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import dim_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"])
    j1 = dim_join(
        orders,
        customer,
        left_on="o_custkey",
        right_on="c_custkey",
        fact_schema=pa.schema([("o_custkey", pa.int64()), ("o_totalprice", pa.float64())]),
        dim_schema=pa.schema([("c_custkey", pa.int64()), ("c_nationkey", pa.int64())]),
        num_partitions=num_partitions,
    )
    j2 = dim_join(
        j1,
        nation,
        left_on="c_nationkey",
        right_on="n_nationkey",
        fact_schema=pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("o_totalprice", pa.float64()),
                ("c_nationkey", pa.int64()),
            ]
        ),
        dim_schema=pa.schema([("n_nationkey", pa.int64()), ("n_name", pa.string())]),
        num_partitions=num_partitions,
    )
    agg = j2.groupby("n_name", num_partitions=num_partitions).aggregate(
        Sum("o_totalprice", alias_name="revenue"),
        Count(alias_name="n_orders"),
    )
    return _round_cols(agg, ["revenue"])


def top_customers(sf_dir: str, k: int = 10, num_partitions: int = 8):
    """Per-customer revenue -> global top-k via per-block partial top-k
    (no global sort), deterministic tie-break on custkey."""
    from ray.data.aggregate import Count, Sum

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    agg = orders.groupby("o_custkey", num_partitions=num_partitions).aggregate(
        Sum("o_totalprice", alias_name="revenue"),
        Count(alias_name="n_orders"),
    )
    from dynaalign_ray.exec import partial_topk

    # per-block partial top-k over the per-customer aggregate — no global
    # sort; o_custkey is the unique tiebreaker
    top = partial_topk(
        agg, [("revenue", "descending"), ("o_custkey", "ascending")], k
    )
    return _round_cols(top, ["revenue"])


def events_hourly_anomaly(sf_dir: str, num_partitions: int = 8):
    """Hourly-volume anomaly scores: z = (count_h - mean) / std over the
    per-hour event counts — the monitoring primitive for crawl/pipeline
    volume drops.  Distributed shape: one tumbling-window groupby-count
    (the only corpus-sized pass), then the mean/std come from exact
    integer sufficient statistics (k, S, SS) over the SMALL hour table
    and the z column is one mirrored float tree per row.  std uses the
    sample rule (k-1); IEEE sqrt is correctly rounded on both engines, so
    the oracle is bit-exact."""
    from ray.data.aggregate import Count

    ev = _read(sf_dir, "events", ["ts"])

    def win(batch: pa.Table) -> pa.Table:
        # FLOOR division (numpy //), not Arrow's truncate-toward-zero
        # divide: the oracle's date_trunc('hour', ts) floors, and the two
        # diverge on pre-1970 (negative-epoch) timestamps.
        us = np.asarray(batch.column("ts").cast(pa.int64()))
        hour = (us // 3_600_000_000) * 3_600_000_000
        return pa.table({"hour_us": pa.array(hour, type=pa.int64())})

    counts = (
        ev.map_batches(win, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour_us", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n"))
    )

    def zscore(b: pa.Table, *, stats) -> pa.Table:
        k, s, ss = stats
        n = np.asarray(b.column("n")).astype(np.int64)
        if k == 0:  # empty events table: zero hour rows, nothing to score
            return pa.table(
                {
                    "hour_us": pa.array([], type=pa.int64()),
                    "n": pa.array([], type=pa.int64()),
                    "z": pa.array([], type=pa.float64()),
                }
            )
        mean = float(s) / float(k)
        var = (
            (float(k) * float(ss) - float(s) * float(s))
            / (float(k) * (float(k) - 1.0))
            if k > 1
            else 0.0
        )
        std = float(np.sqrt(var))
        z = (
            (n.astype(np.float64) - mean) / std
            if std > 0.0
            else np.zeros(len(n), dtype=np.float64)
        )
        return pa.table(
            {
                "hour_us": b.column("hour_us"),
                "n": pa.array(n, type=pa.int64()),
                "z": pa.array(z, type=pa.float64()),
            }
        )

    import functools

    # the hour table is an aggregate result (one row per distinct hour) —
    # reducing it to three exact-int scalars on the driver is O(hours)
    tbl = counts.to_pandas()
    nvals = tbl["n"].to_numpy(np.int64)
    stats = (len(nvals), int(nvals.sum()), int((nvals * nvals).sum()))
    import ray.data as rd

    counts2 = rd.from_pandas(tbl)
    return counts2.map_batches(
        functools.partial(zscore, stats=stats),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def events_hourly(sf_dir: str, num_partitions: int = 8):
    """Tumbling 1-hour window aggregate over the events stream table —
    event-time windowing as groupby(floor(ts)) (Ray Data has no watermarks;
    the batch-table semantics are exact).  Window key is epoch-micros int64."""
    from ray.data.aggregate import Count, Mean, Sum

    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def win(batch: pa.Table) -> pa.Table:
        # FLOOR division (matches date_trunc for negative-epoch timestamps)
        us = np.asarray(batch.column("ts").cast(pa.int64()))
        hour = (us // 3_600_000_000) * 3_600_000_000
        return pa.table(
            {
                "hour_us": pa.array(hour, type=pa.int64()),
                "event_type": batch.column("event_type"),
                "value": batch.column("value"),
            }
        )

    agg = (
        ev.map_batches(win, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["hour_us", "event_type"], num_partitions=num_partitions)
        .aggregate(
            Count(alias_name="n_events"),
            Sum("value", alias_name="sum_value"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour_us": batch.column("hour_us"),
                "event_type": batch.column("event_type"),
                "n_events": batch.column("n_events"),
                "sum_value": round4(batch.column("sum_value")),
                "avg_value": derived_avg(
                    batch.column("sum_value"), batch.column("n_events")
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def part_type_stats(sf_dir: str, num_partitions: int = 8):
    from ray.data.aggregate import Count, Max, Sum

    part = _read(sf_dir, "part", ["p_type", "p_retailprice", "p_size"])
    agg = part.groupby("p_type", num_partitions=num_partitions).aggregate(
        Count(alias_name="n_parts"),
        Sum("p_retailprice", alias_name="sum_price"),
        Max("p_size", alias_name="max_size"),
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_type": batch.column("p_type"),
                "n_parts": batch.column("n_parts"),
                "avg_price": derived_avg(
                    batch.column("sum_price"), batch.column("n_parts")
                ),
                "max_size": batch.column("max_size"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def supplier_volume(sf_dir: str, num_partitions: int = 8):
    """lineitem ⋈ supplier — size-gated ``dim_join`` (broadcast while the
    supplier table fits, hash join beyond; supplier scales with sf)."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import dim_join

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_quantity"])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    j = dim_join(
        li,
        supp,
        left_on="l_suppkey",
        right_on="s_suppkey",
        fact_schema=pa.schema([("l_suppkey", pa.int64()), ("l_quantity", pa.float64())]),
        dim_schema=pa.schema([("s_suppkey", pa.int64()), ("s_name", pa.string())]),
        num_partitions=num_partitions,
    )
    agg = j.groupby("s_name", num_partitions=num_partitions).aggregate(
        Sum("l_quantity", alias_name="total_qty"),
        Count(alias_name="n_items"),
    )
    return _round_cols(agg, ["total_qty"])


def high_value_order_counts(sf_dir: str, threshold: float = 200_000.0, num_partitions: int = 8):
    """Vectorized filter inside map_batches + groupby count."""
    from ray.data.aggregate import Count, Sum

    orders = _read(sf_dir, "orders", ["o_orderstatus", "o_totalprice"])

    def filt(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater(batch.column("o_totalprice"), threshold))

    agg = (
        orders.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_orderstatus", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n"), Sum("o_totalprice", alias_name="total"))
    )
    return _round_cols(agg, ["total"])


def lineitem_topk_price(sf_dir: str, k: int = 10):
    """Top-k lineitems by price via per-block partial top-k
    (exec.partial_topk) — no global sort; (orderkey, linenumber) is the
    unique tiebreaker, so the order is total and the result is
    hash-identical to the sort().limit(k) plan."""
    from dynaalign_ray.exec import partial_topk

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"]
    )
    return partial_topk(
        li,
        [
            ("l_extendedprice", "descending"),
            ("l_orderkey", "ascending"),
            ("l_linenumber", "ascending"),
        ],
        k,
    )


def orders_customer_hashjoin(sf_dir: str, num_partitions: int = 8):
    """The engine's own partitioned hash join on two fact-ish tables (orders
    ⋈ customer on custkey), demonstrating the shuffle-join path; per-segment
    revenue."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = hash_join(
        orders,
        customer,
        left_on="o_custkey",
        right_on="c_custkey",
        left_schema=pa.schema([("o_custkey", pa.int64()), ("o_totalprice", pa.float64())]),
        right_schema=pa.schema([("c_custkey", pa.int64()), ("c_mktsegment", pa.string())]),
        num_partitions=num_partitions,
    )
    agg = j.groupby("c_mktsegment", num_partitions=num_partitions).aggregate(
        Sum("o_totalprice", alias_name="revenue"),
        Count(alias_name="n_orders"),
    )
    return _round_cols(agg, ["revenue"])


def events_user_deltas(sf_dir: str, num_partitions: int = 8):
    """LAG window analog: per event, time since the user's previous event
    (see stages/windows.user_lag_deltas for the plan)."""
    from dynaalign_ray.stages.windows import user_lag_deltas

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return user_lag_deltas(ev, num_partitions)


def events_user_median_gap(sf_dir: str, num_partitions: int = 8):
    """Exact per-user median inter-event gap — the per-group exact-quantile
    window shape (see stages/windows.median_gap_block)."""
    from dynaalign_ray.stages.windows import user_median_gaps

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return user_median_gaps(ev, num_partitions)


def events_user_funnel(sf_dir: str, num_partitions: int = 8):
    """Ordered-funnel analysis (view -> click -> purchase): per user, the
    stage reached and per-stage earliest completion timestamps, with the
    ">= previous stage's time" ordering rule (see
    stages/windows.funnel_stage_block).  One keyed repartition, one
    vectorized kernel — the standard product-analytics query expressed in
    the engine's window skeleton."""
    from dynaalign_ray.stages.windows import user_funnel

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    return user_funnel(ev, num_partitions)


def events_cohort_retention(sf_dir: str, num_partitions: int = 8):
    """Cohort retention: users bucketed by the hour of their first event;
    for each (cohort, offset_hours), how many of that cohort's users were
    active then (see stages/windows.cohort_retention — per-block distinct
    emission keeps the count shuffle at one row per user-hour)."""
    from dynaalign_ray.stages.windows import cohort_retention

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    return cohort_retention(ev, num_partitions)


def events_value_ntile(sf_dir: str, num_partitions: int = 8, n_tiles: int = 4):
    """NTILE window analog: per event, the quartile bucket of its value
    within the user's events (see stages/windows.ntile_block — SQL's
    remainder-to-the-first-tiles rule, vectorized)."""
    from dynaalign_ray.stages.windows import user_value_ntiles

    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    return user_value_ntiles(ev, num_partitions, n_tiles)


def events_value_percent_rank(sf_dir: str, num_partitions: int = 8):
    """percent_rank window analog within each user's value order (see
    stages/windows.percent_rank_block)."""
    from dynaalign_ray.stages.windows import user_value_percent_rank

    ev = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    return user_value_percent_rank(ev, num_partitions)


def events_user_running(sf_dir: str, num_partitions: int = 8):
    """Running SUM/COUNT window analog over each user's event sequence
    (see stages/windows.running_totals_block; exact integer cents keep the
    running sum associative and therefore bit-identical to the oracle)."""
    from dynaalign_ray.stages.windows import user_running_totals

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return user_running_totals(ev, num_partitions)


def lineitem_order_share(sf_dir: str, num_partitions: int = 8):
    """Partition-wide window aggregate joined back to its rows: each line
    item's share of its order's total extended price.  Plan: ONE keyed
    repartition on l_orderkey, then per block a vectorized segment sum
    (dictionary-free: orderkey is already int64) broadcast back down the
    segment — never a self-join, never a global sort.  Prices go through
    exact integer cents so the per-order total is associative (same value
    regardless of intra-segment addition order) and the share divides two
    identical integers on both engine and oracle."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice"])

    def share_block(b: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_linenumber", pa.int64()),
                ("share", pa.float64()),
            ]
        )
        if b.num_rows == 0:
            return out_schema.empty_table()
        key = np.asarray(b.column("l_orderkey")).astype(np.int64)
        lineno = np.asarray(b.column("l_linenumber")).astype(np.int64)
        price = np.asarray(b.column("l_extendedprice"), dtype=np.float64)
        order = np.lexsort((lineno, key))
        key, lineno, price = key[order], lineno[order], price[order]
        x = price * 100.0
        cents = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        seg_id = np.cumsum(new) - 1
        totals = np.add.reduceat(cents, starts)[seg_id]
        share = np.asarray(
            round4(cents.astype(np.float64) / totals.astype(np.float64))
        )
        return pa.table(
            {"l_orderkey": key, "l_linenumber": lineno, "share": share},
            schema=out_schema,
        )

    return li.repartition(num_blocks=num_partitions, keys=["l_orderkey"]).map_batches(
        share_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def orders_cube(sf_dir: str, num_partitions: int = 8):
    """GROUP BY CUBE(status, priority): all four grouping sets re-aggregated
    from the same finest distributed partials (see orders_rollup)."""
    return orders_rollup(
        sf_dir,
        num_partitions,
        grouping_sets=((True, True), (True, False), (False, True), (False, False)),
    )


def orders_rollup(
    sf_dir: str,
    num_partitions: int = 8,
    grouping_sets: tuple = ((True, True), (True, False), (False, False)),
):
    """GROUP BY ROLLUP/CUBE/GROUPING SETS analog: finest-level distributed
    aggregate first (count + exact integer-cent sum — both distributive),
    then every coarser grouping-set level is re-aggregated from the finest
    partials in one driver-side pass.  ``grouping_sets`` lists the (keep
    status, keep priority) combos — default is the ROLLUP lattice; CUBE
    adds (False, True).  The finest table is bounded by
    |status| x |priority| (a few dozen rows at any sf), so the driver step
    is O(groups), not O(rows); rolled-up key levels surface as 'ALL'
    (coalesce on the oracle side) to keep the compare NULL-free."""
    from ray.data.aggregate import Count, Sum

    orders = _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch.column("o_totalprice"), dtype=np.float64) * 100.0
        c = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        return pa.table(
            {
                "o_orderstatus": batch.column("o_orderstatus"),
                "o_orderpriority": batch.column("o_orderpriority"),
                "cents": pa.array(c, type=pa.int64()),
            }
        )

    finest = (
        orders.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["o_orderstatus", "o_orderpriority"], num_partitions=num_partitions)
        .aggregate(Count(alias_name="n"), Sum("cents", alias_name="total_cents"))
    )

    import ray.data as rd

    from dynaalign_ray.joins import collect_arrow

    t = collect_arrow(finest)  # bounded: one row per (status, priority) combo

    def level(tbl: pa.Table, status_col, prio_col) -> pa.Table:
        return pa.table(
            {
                "o_orderstatus": status_col,
                "o_orderpriority": prio_col,
                "n": tbl.column("n"),
                "total_cents": tbl.column("total_cents"),
            }
        )

    all_arr = pa.array(["ALL"] * t.num_rows, type=pa.string())
    stacked = pa.concat_tables(
        [
            level(
                t,
                t.column("o_orderstatus") if keep_s else all_arr,
                t.column("o_orderpriority") if keep_p else all_arr,
            )
            for keep_s, keep_p in grouping_sets
        ]
    )
    out = stacked.group_by(["o_orderstatus", "o_orderpriority"]).aggregate(
        [("n", "sum"), ("total_cents", "sum")]
    )
    out = out.rename_columns(["o_orderstatus", "o_orderpriority", "n", "total_cents"])
    return rd.from_arrow(
        out.set_column(2, "n", out.column("n").cast(pa.int64())).set_column(
            3, "total_cents", out.column("total_cents").cast(pa.int64())
        )
    )


def customers_no_big_orders(sf_dir: str, threshold: float = 400_000.0, num_partitions: int = 8):
    """Anti join via the broadcast-keyset pattern: customers that placed no
    high-value order, counted per market segment.  The distinct o_custkey set is
    reduced per block (local Arrow distinct after a keyed repartition), so
    the driver concat sees one row per distinct key, then the sorted key
    array is ray.put once and every filter task probes it with searchsorted
    — no shuffle of the customer side.  At 10^9+ distinct keys the same
    query flips to a partitioned hash anti-join (joins.hash_join skeleton);
    the broadcast form is right while the key set fits a worker heap
    (8 B/key: ~1 GB per 10^8 customers)."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import broadcast_semi_join, collect_arrow

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def distinct_block(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("o_totalprice"), threshold))
        return b.select(["o_custkey"]).group_by(["o_custkey"]).aggregate([])

    keys = collect_arrow(
        orders.repartition(num_blocks=num_partitions, keys=["o_custkey"]).map_batches(
            distinct_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    no_orders = broadcast_semi_join(customer, keys, left_on="c_custkey", anti=True)
    return no_orders.groupby("c_mktsegment", num_partitions=num_partitions).aggregate(
        Count(alias_name="n_customers")
    )


def customers_with_returns(sf_dir: str, num_partitions: int = 8):
    """Multi-hop EXISTS chain: customers with at least one order containing
    a returned lineitem, counted per market segment.  Two broadcast-keyset
    semi joins (lineitem -> distinct returned orderkeys -> orders ->
    distinct custkeys -> customer), each keyset reduced per block after a
    keyed repartition so the driver concat sees one row per distinct key;
    same gate rationale as customers_no_big_orders (hash semi-join once a
    keyset outgrows a worker heap)."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import broadcast_semi_join, collect_arrow

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    customer = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def returned_orderkeys(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("l_returnflag"), pa.scalar("R")))
        return b.select(["l_orderkey"]).group_by(["l_orderkey"]).aggregate([])

    okeys = collect_arrow(
        li.repartition(num_blocks=num_partitions, keys=["l_orderkey"]).map_batches(
            returned_orderkeys,
            batch_size=None,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    orders_r = broadcast_semi_join(orders, okeys, left_on="o_orderkey")

    def distinct_cust(b: pa.Table) -> pa.Table:
        return b.select(["o_custkey"]).group_by(["o_custkey"]).aggregate([])

    ckeys = collect_arrow(
        orders_r.repartition(num_blocks=num_partitions, keys=["o_custkey"]).map_batches(
            distinct_cust,
            batch_size=None,
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )
    matched = broadcast_semi_join(customer, ckeys, left_on="c_custkey")
    return matched.groupby("c_mktsegment", num_partitions=num_partitions).aggregate(
        Count(alias_name="n_customers")
    )


def events_type_users(sf_dir: str, num_partitions: int = 8):
    """EXACT distinct-count aggregate: distinct users per event type.  Plan:
    project (event_type, user_id), keyed repartition by user_id + one local
    Arrow distinct per block (every (type, user) pair lands wholly in one
    block, so local distinct == global distinct), then a tiny groupby-count
    over the deduped pairs — the shuffle carries two narrow columns and the
    final aggregate sees one row per distinct pair.  The approximate 100 TB
    form is the mergeable HLL in functions/sketches.py."""
    from ray.data.aggregate import Count

    ev = _read(sf_dir, "events", ["event_type", "user_id"])

    def distinct_block(b: pa.Table) -> pa.Table:
        return b.group_by(["user_id", "event_type"]).aggregate([])

    pairs = ev.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        distinct_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
    return pairs.groupby("event_type", num_partitions=num_partitions).aggregate(
        Count(alias_name="n_users")
    )


def customer_order_counts(sf_dir: str, num_partitions: int = 8):
    """LEFT OUTER join surface: every customer with their order count and
    exact-cents revenue, INCLUDING zero-order customers (the rows an inner
    join drops).  Plan: pre-aggregate orders per custkey first — the join's
    right side and the shuffle carry one (custkey, n, cents) row per
    customer-with-orders, never raw order rows — then the engine's
    partitioned hash join with ``how="left outer"`` and a vectorized
    null-fill.  LEFT JOIN analog of `orders_customer_hashjoin`."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import dim_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch.column("o_totalprice"), dtype=np.float64) * 100.0
        c = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "cents": pa.array(c, type=pa.int64()),
            }
        )

    per_cust = (
        orders.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_custkey", num_partitions=num_partitions)
        .aggregate(
            Count(alias_name="n_orders"), Sum("cents", alias_name="revenue_cents")
        )
    )
    customer = _read(sf_dir, "customer", ["c_custkey"])
    # the aggregated side is one row per customer-with-orders: size-gated
    # broadcast (avoids the join's second shuffle stage) with the
    # hash-join fallback once it outgrows the gate at scale
    per_cust = per_cust.materialize()
    j = dim_join(
        customer,
        per_cust,
        left_on="c_custkey",
        right_on="o_custkey",
        fact_schema=pa.schema([("c_custkey", pa.int64())]),
        dim_schema=pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("n_orders", pa.int64()),
                ("revenue_cents", pa.int64()),
            ]
        ),
        num_partitions=num_partitions,
        how="left outer",
        approx_dim_rows=per_cust.count(),
    )

    def fill(batch: pa.Table) -> pa.Table:
        zero = pa.scalar(0, type=pa.int64())
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "n_orders": pc.coalesce(batch.column("n_orders"), zero),
                "revenue_cents": pc.coalesce(batch.column("revenue_cents"), zero),
            }
        )

    return j.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


def orders_above_cust_avg(sf_dir: str, num_partitions: int = 8):
    """Correlated-subquery shape: orders strictly above their own
    customer's average order value.  The comparison runs in EXACT integer
    cents — ``cents * n > sum_cents`` instead of ``price > avg`` — so no
    float-summation-order hazard exists at the boundary (the repo's
    money-column convention).  Plan: per-customer (n, sum_cents)
    pre-aggregate, size-gated dim join back onto orders, one vectorized
    filter."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import dim_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch.column("o_totalprice"), dtype=np.float64) * 100.0
        c = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_custkey": batch.column("o_custkey"),
                "cents": pa.array(c, type=pa.int64()),
            }
        )

    with_cents = orders.map_batches(
        cents, batch_format="pyarrow", zero_copy_batch=True
    )
    per_cust = (
        with_cents.select_columns(["o_custkey", "cents"])
        .groupby("o_custkey", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n"), Sum("cents", alias_name="s"))
        .materialize()
    )
    j = dim_join(
        with_cents,
        per_cust,
        left_on="o_custkey",
        right_on="o_custkey",
        fact_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("o_custkey", pa.int64()),
                ("cents", pa.int64()),
            ]
        ),
        dim_schema=pa.schema(
            [("o_custkey", pa.int64()), ("n", pa.int64()), ("s", pa.int64())]
        ),
        num_partitions=num_partitions,
        approx_dim_rows=per_cust.count(),
    )

    def above(b: pa.Table) -> pa.Table:
        c = np.asarray(b.column("cents")).astype(np.int64)
        n = np.asarray(b.column("n")).astype(np.int64)
        s = np.asarray(b.column("s")).astype(np.int64)
        keep = c * n > s
        kept = b.filter(pa.array(keep))
        return pa.table(
            {
                "o_orderkey": kept.column("o_orderkey"),
                "o_custkey": kept.column("o_custkey"),
            }
        )

    return j.map_batches(above, batch_format="pyarrow", zero_copy_batch=True)


def events_value_stats(sf_dir: str, num_partitions: int = 8):
    """EXACT distributed population stddev per event type.

    Variance needs sum-of-squares; floats drift across summation orders, so
    both engines aggregate EXACT integer cents: per whole batch one Arrow
    group_by emits (n, Σcents, Σcents²) partials (all < 2^63), a tiny
    groupby sums them, and the O(groups) finish computes
    ``sqrt(n·Σc² − (Σc)²)/n/100`` with arbitrary-precision Python ints —
    (Σc)² overflows int64, exactly why the finish never runs vectorized.
    The oracle mirrors with HUGEINT.  Final stddev rounded 4 decimals on
    identical doubles (round4 convention)."""
    import math

    from ray.data.aggregate import Sum

    ev = _read(sf_dir, "events", ["event_type", "value"])

    partial_schema = pa.schema(
        [
            ("event_type", pa.string()),
            ("n", pa.int64()),
            ("sum_cents", pa.int64()),
            ("sumsq_cents", pa.int64()),
        ]
    )

    def partials(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch.column("value"), dtype=np.float64) * 100.0
        c = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        t = pa.table(
            {
                "event_type": batch.column("event_type"),
                "cents": pa.array(c, type=pa.int64()),
                "sq": pa.array(c * c, type=pa.int64()),
            }
        )
        g = t.group_by("event_type").aggregate(
            [("cents", "sum"), ("sq", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "n": pc.cast(g.column("count_all"), pa.int64()),
                "sum_cents": g.column("cents_sum"),
                "sumsq_cents": g.column("sq_sum"),
            },
            schema=partial_schema,
        )

    agg = (
        ev.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type", num_partitions=num_partitions)
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_cents", alias_name="sum_cents"),
            Sum("sumsq_cents", alias_name="sumsq_cents"),
        )
    )

    def finish(batch: pa.Table) -> pa.Table:
        ns = batch.column("n").to_pylist()
        sums = batch.column("sum_cents").to_pylist()
        sqs = batch.column("sumsq_cents").to_pylist()
        std = [
            math.sqrt(float(n * q - s * s)) / n / 100.0 if n else 0.0
            for n, s, q in zip(ns, sums, sqs)
        ]
        return batch.append_column("stddev_value", round4(np.array(std)))

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def events_trailing_hour(sf_dir: str, num_partitions: int = 8):
    """RANGE-interval window: per event, the user's SUM/COUNT over the
    trailing hour (boundary and ts-peers included, SQL RANGE semantics) —
    see stages/windows.trailing_window_block for the composite-key plan."""
    from dynaalign_ray.stages.windows import user_trailing_window

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    return user_trailing_window(ev, num_partitions, window_us=3_600_000_000)


def q3_shipping_priority(sf_dir: str, num_partitions: int = 8, k: int = 10):
    """TPC-H Q3-shaped composition (filter -> semi-join -> hash join ->
    groupby -> global top-k): top-k unshipped orders by discounted revenue
    for one customer segment.  Plan: the segment's custkeys are a broadcast
    keyset (semi join, no shuffle); date filters push to the parquet read;
    the only shuffle join is lineitem ⋈ filtered-orders on orderkey; the
    final sort feeds limit(k) so only k rows reach the driver.  Revenue is
    ranked on the ROUNDED value with l_orderkey tiebreak so ordering never
    depends on last-ulp float summation differences between engines."""
    import ray.data as rd

    from ray.data.aggregate import Max, Sum

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.joins import broadcast_semi_join, collect_arrow, hash_join

    configure_context()
    cutoff = pa.scalar(np.datetime64("1995-03-15", "us"))
    # keyset built from arrow block refs (collect_arrow) — never a
    # driver-side Python row rebuild; semi join is a broadcast probe.  At
    # 10^9+ segment keys this flips to the partitioned hash-join skeleton
    # exactly as customers_no_big_orders documents.
    seg_keys = collect_arrow(
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
        .filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey"])
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def odate_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch.column("o_orderdate"), cutoff))

    o_f = broadcast_semi_join(
        orders.map_batches(odate_filter, batch_format="pyarrow", zero_copy_batch=True),
        seg_keys,
        left_on="o_custkey",
    )

    def o_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "orderdate_us": batch.column("o_orderdate").cast(pa.int64()),
            }
        )

    import pyarrow.dataset as pads

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=pads.field("l_shipdate") > np.datetime64("1995-03-15", "us"),
    )

    def li_prep(batch: pa.Table) -> pa.Table:
        price = np.asarray(batch.column("l_extendedprice"), dtype=np.float64)
        disc = np.asarray(batch.column("l_discount"), dtype=np.float64)
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "disc_price": pa.array(price * (1.0 - disc), type=pa.float64()),
            }
        )

    j = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow", zero_copy_batch=True),
        o_f.map_batches(o_prep, batch_format="pyarrow", zero_copy_batch=True),
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()), ("disc_price", pa.float64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("orderdate_us", pa.int64())]),
        num_partitions=num_partitions,
    )
    agg = j.groupby("l_orderkey", num_partitions=num_partitions).aggregate(
        Sum("disc_price", alias_name="revenue"),
        Max("orderdate_us", alias_name="orderdate_us"),  # constant per order
    )
    rounded = _round_cols(agg, ["revenue"])
    return rounded.sort(["revenue", "l_orderkey"], descending=[True, False]).limit(k)


def events_type_users_approx(sf_dir: str, num_partitions: int = 8):
    """Grouped mergeable-HLL distinct users per event type — the 100 TB form
    of events_type_users (rows-only; pytest gates the estimate within 5%)."""
    from dynaalign_ray.functions.sketches import grouped_approx_distinct

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    out = grouped_approx_distinct(ev, "event_type", "user_id", num_partitions)
    return out.rename_columns(["event_type", "n_users_approx"])


def revenue_by_region(sf_dir: str, num_partitions: int = 8):
    """Four-table dimension chain (orders ⋈ customer ⋈ nation ⋈ region):
    every dimension goes through the size-gated dim_join; the two tiny
    dimensions broadcast, customer flips to the hash join past the gate."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import dim_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"])
    j1 = dim_join(
        orders,
        customer,
        left_on="o_custkey",
        right_on="c_custkey",
        fact_schema=pa.schema([("o_custkey", pa.int64()), ("o_totalprice", pa.float64())]),
        dim_schema=pa.schema([("c_custkey", pa.int64()), ("c_nationkey", pa.int64())]),
        num_partitions=num_partitions,
    )
    j2 = dim_join(
        j1,
        nation,
        left_on="c_nationkey",
        right_on="n_nationkey",
        fact_schema=pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("o_totalprice", pa.float64()),
                ("c_nationkey", pa.int64()),
            ]
        ),
        dim_schema=pa.schema([("n_nationkey", pa.int64()), ("n_regionkey", pa.int64())]),
        num_partitions=num_partitions,
    )
    j3 = dim_join(
        j2,
        region,
        left_on="n_regionkey",
        right_on="r_regionkey",
        fact_schema=pa.schema(
            [
                ("o_custkey", pa.int64()),
                ("o_totalprice", pa.float64()),
                ("c_nationkey", pa.int64()),
                ("n_regionkey", pa.int64()),
            ]
        ),
        dim_schema=pa.schema([("r_regionkey", pa.int64()), ("r_name", pa.string())]),
        num_partitions=num_partitions,
    )
    agg = j3.groupby("r_name", num_partitions=num_partitions).aggregate(
        Sum("o_totalprice", alias_name="revenue"),
        Count(alias_name="n_orders"),
    )
    return _round_cols(agg, ["revenue"])


def _seg_median(keys, vals):
    """Per-segment exact median with DuckDB interpolation semantics
    (even counts average the two middle elements): one lexsort, then the
    two middle elements per segment gathered vectorized.  Returns
    (segment_keys, counts, medians, position-of-first-row-per-segment)."""
    order = np.lexsort((vals, keys))
    ks, vs = keys[order], vals[order]
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    counts = np.diff(np.append(starts, len(ks)))
    lo = starts + (counts - 1) // 2
    hi = starts + counts // 2
    med = (vs[lo] + vs[hi]) / 2.0
    return ks[starts], counts, med, order[starts]


def lineitem_returnflag_mad(sf_dir: str, num_partitions: int = 8):
    """Per-group robust dispersion: exact MEDIAN and MAD (median absolute
    deviation) of l_extendedprice per l_returnflag — the robust-outlier
    analog of events_value_stats.  Plan: keyed repartition on the group
    key (each group whole in one block), then ONE kernel per block doing
    two vectorized median passes (values, then |value - group median|)
    via the same lexsort + two-middle-element gather as
    stages/windows.median_gap_block.  DuckDB interpolation semantics on
    both medians, so the oracle compare is bit-exact (selection +
    interpolation only — no accumulation-order float hazards)."""
    out_schema = pa.schema(
        [
            ("l_returnflag", pa.string()),
            ("n_items", pa.int64()),
            ("median_price", pa.float64()),
            ("mad_price", pa.float64()),
        ]
    )

    def mad_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        modes = b.column("l_returnflag").combine_chunks()
        if isinstance(modes, pa.ChunkedArray):
            modes = modes.chunk(0)
        code = np.asarray(modes.dictionary_encode().indices, dtype=np.int64)
        price = np.asarray(b.column("l_extendedprice")).astype(np.float64)
        gkeys, counts, med, first_pos = _seg_median(code, price)
        med_per_row = med[np.searchsorted(gkeys, code)]
        _, _, mad, _ = _seg_median(code, np.abs(price - med_per_row))
        return pa.table(
            {
                "l_returnflag": modes.take(pa.array(first_pos)),
                "n_items": pa.array(counts, type=pa.int64()),
                "median_price": pa.array(med, type=pa.float64()),
                "mad_price": pa.array(mad, type=pa.float64()),
            },
            schema=out_schema,
        )

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])
    return li.repartition(num_blocks=num_partitions, keys=["l_returnflag"]).map_batches(
        mad_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def lineitem_price_quantiles(sf_dir: str, num_partitions: int = 8):
    """EXACT quantiles over a float money column (l_extendedprice): prices
    map losslessly to integer cents (2-decimal doubles roundtrip exactly
    through rint(x*100)/100 — verified on the testdata), so the distributed
    value-histogram plan of ``exact_int_quantiles`` applies and the result
    is hash-exact against DuckDB quantile_disc.  The distinct-cents
    cardinality stays bounded (~1e7) even at 10^12 rows, so this IS the
    scale plan for money columns; truly unbounded float columns go through
    the mergeable KLL sketch (``functions.sketches.approx_float_quantiles``,
    equivalence-gated against this query in pytest)."""
    from dynaalign_ray.functions.sketches import exact_int_quantiles

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def to_cents(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch.column("l_extendedprice"), dtype=np.float64) * 100.0
        cents = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        return pa.table({"cents": pa.array(cents, type=pa.int64())})

    cents_ds = li.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True)
    out = exact_int_quantiles(
        cents_ds, "cents", [0.25, 0.5, 0.75, 0.9, 0.99], num_partitions
    )
    v = np.asarray(out.column("value")).astype(np.int64)
    return pa.table(
        {"q": out.column("q"), "price": pa.array(v / 100.0, type=pa.float64())}
    )


def customer_segment_fullouter(sf_dir: str, num_partitions: int = 8):
    """FULL OUTER join surface: AUTOMOBILE-segment customers vs per-customer
    order counts — keeps segment customers with zero orders (right nulls)
    AND ordering customers outside the segment (left nulls), the rows both
    one-sided joins drop.  Plan: pre-aggregate orders per custkey (the join
    carries one row per ordering customer, never raw orders), then the
    engine's partitioned hash_join with ``how="full outer"`` — correct per
    partition because both sides hash-shuffle on the key.  A left-side
    marker column (not key nullness) records membership, so coalesced keys
    stay usable."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import hash_join

    def seg(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch.column("c_mktsegment"), "AUTOMOBILE")
        t = batch.filter(m)
        return pa.table(
            {
                "c_custkey": t.column("c_custkey"),
                "in_segment": pa.array(np.ones(t.num_rows, dtype=bool)),
            }
        )

    customers = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        seg, batch_format="pyarrow", zero_copy_batch=True
    )
    per_cust = (
        _read(sf_dir, "orders", ["o_custkey"])
        .groupby("o_custkey", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_orders"))
    )
    j = hash_join(
        customers,
        per_cust,
        left_on="c_custkey",
        right_on="o_custkey",
        left_schema=pa.schema([("c_custkey", pa.int64()), ("in_segment", pa.bool_())]),
        right_schema=pa.schema([("o_custkey", pa.int64()), ("n_orders", pa.int64())]),
        num_partitions=num_partitions,
        how="full outer",
    )

    def fill(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "custkey": batch.column("c_custkey"),
                "in_segment": pc.coalesce(
                    batch.column("in_segment"), pa.scalar(False)
                ),
                "n_orders": pc.coalesce(
                    batch.column("n_orders"), pa.scalar(0, type=pa.int64())
                ),
            }
        )

    return j.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)


def orders_late_shipments(sf_dir: str, num_partitions: int = 8):
    """EXISTS with a cross-table condition (TPC-H Q4 shape, adapted to this
    schema): count orders per priority that have at least one lineitem
    shipped more than 60 days after the order date.  The correlated
    EXISTS is decorrelated into a per-order MAX pre-aggregate — the only
    rows entering the orderkey join are one (orderkey, max_shipdate) row
    per order, never raw lineitems — then a 1:1 hash join with orders and
    a vectorized date comparison (``max(l_shipdate) > o_orderdate + 60d``
    is equivalent to EXISTS because max exceeds the threshold iff any
    lineitem does)."""
    from ray.data.aggregate import Count, Max

    from dynaalign_ray.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def ship_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "ship_us": batch.column("l_shipdate").cast(pa.int64()),
            }
        )

    max_ship = (
        li.map_batches(ship_us, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_orderkey", num_partitions=num_partitions)
        .aggregate(Max("ship_us", alias_name="max_ship_us"))
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def o_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "orderdate_us": batch.column("o_orderdate").cast(pa.int64()),
                "o_orderpriority": batch.column("o_orderpriority"),
            }
        )

    j = hash_join(
        orders.map_batches(o_prep, batch_format="pyarrow", zero_copy_batch=True),
        max_ship,
        left_on="o_orderkey",
        right_on="l_orderkey",
        left_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("orderdate_us", pa.int64()),
                ("o_orderpriority", pa.string()),
            ]
        ),
        right_schema=pa.schema([("l_orderkey", pa.int64()), ("max_ship_us", pa.int64())]),
        num_partitions=num_partitions,
    )
    sixty_days_us = 60 * 86_400 * 1_000_000

    def late(b: pa.Table) -> pa.Table:
        mask = pc.greater(
            b.column("max_ship_us"),
            pc.add(b.column("orderdate_us"), pa.scalar(sixty_days_us, type=pa.int64())),
        )
        return b.filter(mask).select(["o_orderpriority"])

    from ray.data.aggregate import Count

    return (
        j.map_batches(late, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_orderpriority", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_late"))
    )


def promo_revenue_share(sf_dir: str, num_partitions: int = 8):
    """Conditional-aggregate join (TPC-H Q14 shape): the share of one
    month's discounted revenue that came from PROMO-type parts.  Part is a
    size-gated dim join; the promo flag becomes a vectorized 0/1
    multiplier so ONE global (promo_sum, total_sum) aggregate finishes the
    query; the share is derived from the two ROUNDED sums (identical
    doubles on both sides) so last-ulp summation order can't flip the
    comparison."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Sum

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.joins import dim_join

    configure_context()
    lo = np.datetime64("1997-09-01", "us")
    hi = np.datetime64("1997-10-01", "us")
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_type"])
    j = dim_join(
        li,
        part,
        left_on="l_partkey",
        right_on="p_partkey",
        fact_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("l_extendedprice", pa.float64()),
                ("l_discount", pa.float64()),
                ("l_shipdate", pa.timestamp("us")),
            ]
        ),
        dim_schema=pa.schema([("p_partkey", pa.int64()), ("p_type", pa.string())]),
        num_partitions=num_partitions,
    )

    def prep(b: pa.Table) -> pa.Table:
        price = np.asarray(b.column("l_extendedprice"), dtype=np.float64)
        disc = np.asarray(b.column("l_discount"), dtype=np.float64)
        dp = price * (1.0 - disc)
        promo = np.asarray(pc.equal(b.column("p_type"), pa.scalar("PROMO"))).astype(
            np.float64
        )
        return pa.table(
            {
                "disc_price": pa.array(dp, type=pa.float64()),
                "promo_price": pa.array(dp * promo, type=pa.float64()),
            }
        )

    agg = j.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("promo_price", alias_name="promo_revenue"),
        Sum("disc_price", alias_name="total_revenue"),
    )
    # scalar-dict result -> one-row table with the derived share
    promo = round4(pa.array([agg["promo_revenue"]], type=pa.float64()))
    total = round4(pa.array([agg["total_revenue"]], type=pa.float64()))
    share = round4(
        pa.array(
            [100.0 * np.asarray(promo)[0] / np.asarray(total)[0]], type=pa.float64()
        )
    )
    return pa.table(
        {"promo_revenue": promo, "total_revenue": total, "promo_share": share}
    )


def local_supplier_revenue(sf_dir: str, num_partitions: int = 8):
    """TPC-H Q5 shape — the deepest join tree in the relational surface:
    lineitem ⋈ orders (fact-fact hash join on orderkey, date filter pushed
    to the parquet read) ⋈ customer ⋈ supplier (both size-gated dim joins)
    with the LOCAL-supplier correlation filter c_nationkey == s_nationkey
    applied as a vectorized batch compare, then nation for the display
    name and a per-nation revenue aggregate.  Only the orderkey join
    shuffles; every dimension side rides the broadcast plan until it
    outgrows the gate."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.joins import dim_join, hash_join

    configure_context()
    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1997-01-01", "us")
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    ).select_columns(["o_orderkey", "o_custkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])

    def li_prep(b: pa.Table) -> pa.Table:
        price = np.asarray(b.column("l_extendedprice"), dtype=np.float64)
        disc = np.asarray(b.column("l_discount"), dtype=np.float64)
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_suppkey": b.column("l_suppkey"),
                "disc_price": pa.array(price * (1.0 - disc), type=pa.float64()),
            }
        )

    j = hash_join(
        li.map_batches(li_prep, batch_format="pyarrow", zero_copy_batch=True),
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("disc_price", pa.float64()),
            ]
        ),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
        num_partitions=num_partitions,
    )
    customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "cust_nation": b.column("c_nationkey").cast(pa.int64()),
            }
        )

    j2 = dim_join(
        j,
        customer.map_batches(cust_prep, batch_format="pyarrow", zero_copy_batch=True),
        left_on="o_custkey",
        right_on="c_custkey",
        fact_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("disc_price", pa.float64()),
                ("o_custkey", pa.int64()),
            ]
        ),
        dim_schema=pa.schema([("c_custkey", pa.int64()), ("cust_nation", pa.int64())]),
        num_partitions=num_partitions,
    )
    supplier = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def supp_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": b.column("s_suppkey"),
                "supp_nation": b.column("s_nationkey").cast(pa.int64()),
            }
        )

    j3 = dim_join(
        j2,
        supplier.map_batches(supp_prep, batch_format="pyarrow", zero_copy_batch=True),
        left_on="l_suppkey",
        right_on="s_suppkey",
        fact_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("disc_price", pa.float64()),
                ("o_custkey", pa.int64()),
                ("cust_nation", pa.int64()),
            ]
        ),
        dim_schema=pa.schema([("s_suppkey", pa.int64()), ("supp_nation", pa.int64())]),
        num_partitions=num_partitions,
    )

    def local_only(b: pa.Table) -> pa.Table:
        mask = pc.equal(b.column("cust_nation"), b.column("supp_nation"))
        return b.filter(mask).select(["supp_nation", "disc_price"])

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"])

    def nat_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_nationkey": b.column("n_nationkey").cast(pa.int64()),
                "n_name": b.column("n_name"),
            }
        )

    j4 = dim_join(
        j3.map_batches(local_only, batch_format="pyarrow", zero_copy_batch=True),
        nation.map_batches(nat_prep, batch_format="pyarrow", zero_copy_batch=True),
        left_on="supp_nation",
        right_on="n_nationkey",
        fact_schema=pa.schema([("supp_nation", pa.int64()), ("disc_price", pa.float64())]),
        dim_schema=pa.schema([("n_nationkey", pa.int64()), ("n_name", pa.string())]),
        num_partitions=num_partitions,
    )
    agg = j4.groupby("n_name", num_partitions=num_partitions).aggregate(
        Sum("disc_price", alias_name="revenue"),
        Count(alias_name="n_items"),
    )
    return _round_cols(agg, ["revenue"])


def parts_disjunctive_revenue(sf_dir: str, num_partitions: int = 8):
    """Disjunctive multi-attribute predicate (TPC-H Q19 shape): revenue
    from three OR-ed (brand, size-range, quantity-range) conjunction
    groups.  Part is a size-gated dim join; the disjunction is one
    vectorized boolean expression over the joined batch — no row loop, no
    per-branch pass."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import dim_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    j = dim_join(
        li,
        part,
        left_on="l_partkey",
        right_on="p_partkey",
        fact_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("l_quantity", pa.float64()),
                ("l_extendedprice", pa.float64()),
                ("l_discount", pa.float64()),
            ]
        ),
        dim_schema=pa.schema(
            [("p_partkey", pa.int64()), ("p_brand", pa.string()), ("p_size", pa.int32())]
        ),
        num_partitions=num_partitions,
    )
    branches = [
        ("Brand#11", 1, 10, 1.0, 11.0),
        ("Brand#23", 11, 20, 10.0, 20.0),
        ("Brand#14", 21, 30, 20.0, 30.0),
    ]

    def filt(b: pa.Table) -> pa.Table:
        brand = b.column("p_brand")
        size = np.asarray(b.column("p_size").cast(pa.int64()))
        qty = np.asarray(b.column("l_quantity"), dtype=np.float64)
        mask = np.zeros(b.num_rows, dtype=bool)
        for br, s_lo, s_hi, q_lo, q_hi in branches:
            m = np.asarray(pc.equal(brand, pa.scalar(br))).astype(bool)
            m &= (size >= s_lo) & (size <= s_hi) & (qty >= q_lo) & (qty <= q_hi)
            mask |= m
        t = b.filter(pa.array(mask))
        price = np.asarray(t.column("l_extendedprice"), dtype=np.float64)
        disc = np.asarray(t.column("l_discount"), dtype=np.float64)
        return pa.table({"disc_price": pa.array(price * (1.0 - disc), type=pa.float64())})

    agg = j.map_batches(filt, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("disc_price", alias_name="revenue"),
        Count(alias_name="n_items"),
    )
    return pa.table(
        {
            "revenue": round4(pa.array([agg["revenue"]], type=pa.float64())),
            "n_items": pa.array([agg["n_items"]], type=pa.int64()),
        }
    )


def brand_supplier_counts(sf_dir: str, num_partitions: int = 8):
    """Anti-join + exact grouped COUNT(DISTINCT) (TPC-H Q16 shape): per
    (brand, size) the number of distinct suppliers that shipped the part,
    excluding one brand and all low-balance suppliers.  The excluded
    supplier keyset is a broadcast anti semi-join (no shuffle of
    lineitem); the distinct triple is made global by ONE keyed
    repartition on suppkey + a local Arrow distinct (every
    (supp, brand, size) triple lands wholly in one block), then a tiny
    groupby-count over deduped triples."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import broadcast_semi_join, collect_arrow, dim_join

    bad_suppliers = collect_arrow(
        _read(sf_dir, "supplier", ["s_suppkey", "s_acctbal"])
        .filter(expr="s_acctbal < 1000.0")
        .select_columns(["s_suppkey"])
    )
    li = broadcast_semi_join(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]),
        bad_suppliers,
        left_on="l_suppkey",
        anti=True,
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).filter(
        expr="p_brand != 'Brand#19'"
    )

    def part_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "p_brand": b.column("p_brand"),
                "p_size": b.column("p_size").cast(pa.int64()),
            }
        )

    j = dim_join(
        li,
        part.map_batches(part_prep, batch_format="pyarrow", zero_copy_batch=True),
        left_on="l_partkey",
        right_on="p_partkey",
        fact_schema=pa.schema([("l_partkey", pa.int64()), ("l_suppkey", pa.int64())]),
        dim_schema=pa.schema(
            [("p_partkey", pa.int64()), ("p_brand", pa.string()), ("p_size", pa.int64())]
        ),
        num_partitions=num_partitions,
    )

    def distinct_block(b: pa.Table) -> pa.Table:
        return (
            b.select(["l_suppkey", "p_brand", "p_size"])
            .group_by(["l_suppkey", "p_brand", "p_size"])
            .aggregate([])
        )

    triples = j.repartition(num_blocks=num_partitions, keys=["l_suppkey"]).map_batches(
        distinct_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
    return triples.groupby(["p_brand", "p_size"], num_partitions=num_partitions).aggregate(
        Count(alias_name="supplier_cnt")
    )


def idle_rich_customers(sf_dir: str, num_partitions: int = 8):
    """Global-scalar threshold + anti join (TPC-H Q22 shape): per nation,
    customers whose balance is above the positive-balance average AND who
    placed no order in the final crawl year (the "idle" predicate — every
    synthetic customer has SOME order, so the classic no-order-ever form
    is degenerate here).  The average threshold is applied as an EXACT
    integer-cents cross-multiplication (``cents * n > total_cents``) so no
    float division can flip a boundary row between engines; the recent-
    order side is a broadcast distinct-keyset anti join with the date
    filter pushed to the parquet read."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import broadcast_semi_join, collect_arrow

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def cents_block(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("c_acctbal"), pa.scalar(0.0)))
        bal = np.asarray(b.column("c_acctbal"), dtype=np.float64)
        cents = np.rint(bal * 100.0).astype(np.int64)
        return pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "nationkey": b.column("c_nationkey").cast(pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    pos = cust.map_batches(
        cents_block, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    tot = pos.aggregate(Sum("cents", alias_name="total_cents"), Count(alias_name="n"))
    total_cents, n = int(tot["total_cents"]), int(tot["n"])

    def above_avg(b: pa.Table) -> pa.Table:
        cents = np.asarray(b.column("cents"), dtype=np.int64)
        return b.filter(pa.array(cents * n > total_cents))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate"],
        filter=pads.field("o_orderdate") >= np.datetime64("2000-08-01", "us"),
    ).select_columns(["o_custkey"])

    def distinct_block(b: pa.Table) -> pa.Table:
        return b.group_by(["o_custkey"]).aggregate([])

    okeys = collect_arrow(
        orders.repartition(num_blocks=num_partitions, keys=["o_custkey"]).map_batches(
            distinct_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
    )
    idle = broadcast_semi_join(
        pos.map_batches(above_avg, batch_format="pyarrow", zero_copy_batch=True),
        okeys,
        left_on="c_custkey",
        anti=True,
    )
    agg = idle.groupby("nationkey", num_partitions=num_partitions).aggregate(
        Count(alias_name="n_customers"),
        Sum("cents", alias_name="cents"),
    )

    def finish(b: pa.Table) -> pa.Table:
        cents = np.asarray(b.column("cents"), dtype=np.int64)
        return pa.table(
            {
                "nationkey": b.column("nationkey"),
                "n_customers": b.column("n_customers"),
                "total_acctbal": round4(cents / 100.0),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def nation_revenue_share(sf_dir: str, num_partitions: int = 8):
    """Grouped HAVING against a global total (TPC-H Q11 shape): nations
    whose order revenue exceeds 1/25 of global revenue, with their share.
    Revenue is aggregated in EXACT integer cents, the HAVING test is the
    integer cross-multiplication ``25 * nation_cents > total_cents``
    (never a float threshold), and the reported share divides two exact
    int64s — bit-identical doubles on both engines.  The per-nation table
    is nation-count-sized, so the global total and filter finish
    driver-side on a handful of rows."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import collect_arrow, dim_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def cents_block(b: pa.Table) -> pa.Table:
        price = np.asarray(b.column("o_totalprice"), dtype=np.float64)
        return pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "cents": pa.array(np.rint(price * 100.0).astype(np.int64), pa.int64()),
            }
        )

    customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "nationkey": b.column("c_nationkey").cast(pa.int64()),
            }
        )

    j = dim_join(
        orders.map_batches(cents_block, batch_format="pyarrow", zero_copy_batch=True),
        customer.map_batches(cust_prep, batch_format="pyarrow", zero_copy_batch=True),
        left_on="o_custkey",
        right_on="c_custkey",
        fact_schema=pa.schema([("o_custkey", pa.int64()), ("cents", pa.int64())]),
        dim_schema=pa.schema([("c_custkey", pa.int64()), ("nationkey", pa.int64())]),
        num_partitions=num_partitions,
    )
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"])

    def nat_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "n_nationkey": b.column("n_nationkey").cast(pa.int64()),
                "n_name": b.column("n_name"),
            }
        )

    j2 = dim_join(
        j,
        nation.map_batches(nat_prep, batch_format="pyarrow", zero_copy_batch=True),
        left_on="nationkey",
        right_on="n_nationkey",
        fact_schema=pa.schema(
            [("o_custkey", pa.int64()), ("cents", pa.int64()), ("nationkey", pa.int64())]
        ),
        dim_schema=pa.schema([("n_nationkey", pa.int64()), ("n_name", pa.string())]),
        num_partitions=num_partitions,
    )
    per_nation = collect_arrow(
        j2.groupby("n_name", num_partitions=num_partitions).aggregate(
            Sum("cents", alias_name="cents"),
            Count(alias_name="n_orders"),
        )
    )
    cents = np.asarray(per_nation.column("cents"), dtype=np.int64)
    total = int(cents.sum())
    keep = 25 * cents > total
    kept = per_nation.filter(pa.array(keep))
    kc = np.asarray(kept.column("cents"), dtype=np.int64)
    return pa.table(
        {
            "n_name": kept.column("n_name"),
            "revenue": round4(kc / 100.0),
            "share": round4(kc.astype(np.float64) / np.float64(total)),
            "n_orders": kept.column("n_orders"),
        }
    )


def events_user_first_last(sf_dir: str, num_partitions: int = 8):
    """FIRST_VALUE / LAST_VALUE window analog: per user, the type and
    value of their first and last event under the deterministic
    (ts, event_id) order, plus the event count.  ONE keyed repartition by
    user co-locates each user's rows; per block one lexsort + boundary
    gather — no per-row loop, no global sort."""
    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type", "value"])

    def first_last(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema(
                [
                    ("user_id", pa.int64()),
                    ("first_type", pa.string()),
                    ("first_value", pa.float64()),
                    ("last_type", pa.string()),
                    ("last_value", pa.float64()),
                    ("n_events", pa.int64()),
                ]
            ).empty_table()
        uid = np.asarray(b.column("user_id"), dtype=np.int64)
        ts = np.asarray(b.column("ts").cast(pa.int64()))
        eid = np.asarray(b.column("event_id"), dtype=np.int64)
        order = np.lexsort((eid, ts, uid))
        uid = uid[order]
        starts = np.concatenate([[0], np.nonzero(np.diff(uid))[0] + 1])
        ends = np.concatenate([starts[1:], [len(uid)]])
        types = b.column("event_type").take(pa.array(order))
        vals = np.asarray(b.column("value"), dtype=np.float64)[order]
        first_idx, last_idx = starts, ends - 1
        return pa.table(
            {
                "user_id": pa.array(uid[first_idx], pa.int64()),
                "first_type": types.take(pa.array(first_idx)),
                "first_value": pa.array(vals[first_idx], pa.float64()),
                "last_type": types.take(pa.array(last_idx)),
                "last_value": pa.array(vals[last_idx], pa.float64()),
                "n_events": pa.array((ends - starts).astype(np.int64), pa.int64()),
            }
        )

    return ev.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        first_last, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def events_user_mode_type(sf_dir: str, num_partitions: int = 8):
    """Grouped MODE with a deterministic tie rule: each user's most
    frequent event type (count DESC, type ASC).  One groupby-count over
    (user, type) bounds everything downstream at one row per distinct
    pair; the per-user argmax is ONE keyed repartition + an Arrow
    multi-key sort + vectorized first-of-group gather."""
    from ray.data.aggregate import Count

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    cnt = ev.groupby(["user_id", "event_type"], num_partitions=num_partitions).aggregate(
        Count(alias_name="n_events")
    )

    def argmax_block(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.schema(
                [
                    ("user_id", pa.int64()),
                    ("mode_type", pa.string()),
                    ("n_events", pa.int64()),
                ]
            ).empty_table()
        order = pc.sort_indices(
            b,
            sort_keys=[
                ("user_id", "ascending"),
                ("n_events", "descending"),
                ("event_type", "ascending"),
            ],
        )
        t = b.take(order)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        first = np.concatenate([[0], np.nonzero(np.diff(uid))[0] + 1])
        sel = pa.array(first)
        return pa.table(
            {
                "user_id": t.column("user_id").take(sel),
                "mode_type": t.column("event_type").take(sel),
                "n_events": t.column("n_events").take(sel),
            }
        )

    return cnt.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        argmax_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def events_winsorized_stats(sf_dir: str, num_partitions: int = 8):
    """Robust winsorized aggregate: per event type, the mean of values
    CLAMPED to the global exact [p05, p95] band — the outlier-insensitive
    monitoring statistic.  The band comes from the proven exact integer
    quantile (functions/sketches.exact_int_quantiles, DuckDB quantile_disc
    rule) over integer cents; clamped sums stay exact int64, so the final
    means are one mirrored float tree."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.functions.sketches import exact_int_quantiles

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def cents_block(b: pa.Table) -> pa.Table:
        v = np.asarray(b.column("value"), dtype=np.float64)
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "cents": pa.array(np.rint(v * 100.0).astype(np.int64), pa.int64()),
            }
        )

    cents = ev.map_batches(
        cents_block, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    qt = exact_int_quantiles(cents, "cents", [0.05, 0.95], num_partitions)
    lo, hi = (int(v) for v in qt.column("value").to_pylist())

    def clamp(b: pa.Table) -> pa.Table:
        c = np.asarray(b.column("cents"), dtype=np.int64)
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "cents": b.column("cents"),
                "wc": pa.array(np.clip(c, lo, hi), pa.int64()),
            }
        )

    agg = (
        cents.map_batches(clamp, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type", num_partitions=num_partitions)
        .aggregate(
            Count(alias_name="n_events"),
            Sum("cents", alias_name="raw_cents"),
            Sum("wc", alias_name="wins_cents"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = np.asarray(b.column("n_events"), dtype=np.float64)
        raw = np.asarray(b.column("raw_cents"), dtype=np.float64)
        wc = np.asarray(b.column("wins_cents"), dtype=np.float64)
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "n_events": b.column("n_events"),
                "raw_mean": round4((raw / 100.0) / n),
                "winsorized_mean": round4((wc / 100.0) / n),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def orders_monthly_growth(sf_dir: str, num_partitions: int = 8):
    """Time-series LAG over a tumbling month window: monthly order count +
    exact-cents revenue and their deltas vs the previous calendar month.
    One corpus-sized groupby-count is the whole distributed pass; the
    month table is tiny (corpus-lifetime months), so the LAG finishes
    driver-side on a handful of rows — the monitoring-dashboard shape."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import collect_arrow

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        price = np.asarray(b.column("o_totalprice"), dtype=np.float64)
        return pa.table(
            {
                "month_us": pc.floor_temporal(
                    b.column("o_orderdate"), unit="month"
                ).cast(pa.int64()),
                "cents": pa.array(np.rint(price * 100.0).astype(np.int64), pa.int64()),
            }
        )

    monthly = collect_arrow(
        orders.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("month_us", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_orders"), Sum("cents", alias_name="cents"))
    )
    order = pc.sort_indices(monthly, sort_keys=[("month_us", "ascending")])
    t = monthly.take(order)
    n = np.asarray(t.column("n_orders"), dtype=np.int64)
    cents = np.asarray(t.column("cents"), dtype=np.int64)
    dn = np.empty_like(n)
    dc = np.empty_like(cents)
    dn[0], dc[0] = 0, 0
    dn[1:] = n[1:] - n[:-1]
    dc[1:] = cents[1:] - cents[:-1]
    return pa.table(
        {
            "month_us": t.column("month_us"),
            "n_orders": pa.array(n, pa.int64()),
            "revenue": round4(cents / 100.0),
            "delta_orders": pa.array(dn, pa.int64()),
            "delta_revenue": round4(dc / 100.0),
        }
    )


def events_props_stats(sf_dir: str, num_partitions: int = 8):
    """Semi-structured extraction: parse the JSON ``props`` payload and
    aggregate the extracted integer per event type.  The extraction is
    ONE vectorized RE2 pass (pc.extract_regex — no per-row json.loads
    loop); sums stay exact int64.  Rows with no parsable key are counted
    separately (n_missing) instead of silently dropped."""
    from ray.data.aggregate import Count, Sum

    ev = _read(sf_dir, "events", ["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        m = pc.extract_regex(b.column("props"), pattern=r'"k":\s*(?P<k>-?\d+)')
        ks = pc.struct_field(m, "k")
        valid = pc.is_valid(ks)
        k = np.asarray(
            pc.cast(pc.if_else(valid, ks, pa.scalar("0")), pa.int64()), dtype=np.int64
        )
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "k": pa.array(k, pa.int64()),
                "missing": pa.array(
                    (~np.asarray(valid)).astype(np.int64), pa.int64()
                ),
            }
        )

    agg = (
        ev.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type", num_partitions=num_partitions)
        .aggregate(
            Count(alias_name="n_events"),
            Sum("k", alias_name="k_sum"),
            Sum("missing", alias_name="n_missing"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        s = np.asarray(b.column("k_sum"), dtype=np.float64)
        n = np.asarray(b.column("n_events"), dtype=np.float64)
        return pa.table(
            {
                "event_type": b.column("event_type"),
                "n_events": b.column("n_events"),
                "k_sum": b.column("k_sum"),
                "k_mean": round4(s / n),
                "n_missing": b.column("n_missing"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


_PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def doc_lang_source_pivot(sf_dir: str, num_partitions: int = 8):
    """PIVOT / crosstab: per source, one count column per language (the
    wide monitoring layout).  The conditional indicators are emitted
    vectorized per batch, so ONE narrow groupby-sum shuffle produces the
    wide table directly — no second pass, no driver pivot of raw rows."""
    from ray.data.aggregate import Count, Sum

    docs = _read(sf_dir, "documents", ["source", "lang"])

    def indicators(b: pa.Table) -> pa.Table:
        cols = {"source": b.column("source")}
        lang = b.column("lang")
        for lg in _PIVOT_LANGS:
            cols[lg] = pc.cast(pc.equal(lang, pa.scalar(lg)), pa.int64())
        return pa.table(cols)

    agg = (
        docs.map_batches(indicators, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source", num_partitions=num_partitions)
        .aggregate(
            Count(alias_name="n_docs"),
            *[Sum(lg, alias_name=lg) for lg in _PIVOT_LANGS],
        )
    )
    return agg


def events_transition_counts(sf_dir: str, num_partitions: int = 8):
    """Markov-chain surface: global counts of consecutive event-type
    transitions within each user's (ts, event_id)-ordered sequence — the
    LAG-bigram shape behind session path analysis.  Plan: one keyed
    repartition on user_id, one vectorized bigram kernel with per-block
    partial aggregation (<= |types|^2 rows leave each block), tiny global
    groupby-sum (see stages/windows.user_transition_counts)."""
    from dynaalign_ray.stages.windows import user_transition_counts

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    return user_transition_counts(ev, num_partitions)


def returnflag_priority_counts(sf_dir: str, num_partitions: int = 8):
    """Conditional-count join (TPC-H Q12 shape, adapted — this schema has
    no l_shipmode, so l_returnflag plays the grouping column): per return
    flag, how many 1997-shipped lineitems belong to critical-priority
    orders (1-URGENT / 2-HIGH) vs the rest.  The priority test becomes a
    vectorized 0/1 pair so ONE groupby-sum finishes the query; the date
    filter is pushed into the parquet read."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Sum

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.joins import hash_join

    configure_context()
    lo = np.datetime64("1997-01-01", "us")
    hi = np.datetime64("1998-01-01", "us")
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    ).drop_columns(["l_shipdate"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    j = hash_join(
        li,
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("l_returnflag", pa.string())]
        ),
        right_schema=pa.schema(
            [("o_orderkey", pa.int64()), ("o_orderpriority", pa.string())]
        ),
        num_partitions=num_partitions,
    )

    def flags(b: pa.Table) -> pa.Table:
        prio = b.column("o_orderpriority")
        high = pc.or_(
            pc.equal(prio, pa.scalar("1-URGENT")), pc.equal(prio, pa.scalar("2-HIGH"))
        )
        hi64 = pc.cast(high, pa.int64())
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "high_line_count": hi64,
                "low_line_count": pc.subtract(pa.scalar(1, type=pa.int64()), hi64),
            }
        )

    return (
        j.map_batches(flags, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_returnflag", num_partitions=num_partitions)
        .aggregate(
            Sum("high_line_count", alias_name="high_line_count"),
            Sum("low_line_count", alias_name="low_line_count"),
        )
    )


def customer_order_distribution(sf_dir: str, num_partitions: int = 8):
    """Histogram-of-group-sizes (TPC-H Q13 shape): how many customers
    placed exactly N orders, INCLUDING the zero-order customers a plain
    inner join would drop.  Plan: per-customer order-count pre-aggregate
    (the shuffle carries one row per customer-with-orders), size-gated
    LEFT join onto customer with a vectorized zero-fill, then a SECOND
    tiny groupby over at most max(N)+1 distinct counts."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import dim_join

    orders = _read(sf_dir, "orders", ["o_custkey"])
    per_cust = orders.groupby("o_custkey", num_partitions=num_partitions).aggregate(
        Count(alias_name="n_orders")
    )
    customer = _read(sf_dir, "customer", ["c_custkey"])
    per_cust = per_cust.materialize()
    j = dim_join(
        customer,
        per_cust,
        left_on="c_custkey",
        right_on="o_custkey",
        fact_schema=pa.schema([("c_custkey", pa.int64())]),
        dim_schema=pa.schema([("o_custkey", pa.int64()), ("n_orders", pa.int64())]),
        num_partitions=num_partitions,
        how="left outer",
        approx_dim_rows=per_cust.count(),
    )

    def fill(b: pa.Table) -> pa.Table:
        zero = pa.scalar(0, type=pa.int64())
        return pa.table({"n_orders": pc.coalesce(b.column("n_orders"), zero)})

    return (
        j.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("n_orders", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_customers"))
    )


def top_supplier_revenue(sf_dir: str, num_partitions: int = 8):
    """Argmax-over-grouped-aggregate (TPC-H Q15 shape): the supplier(s)
    with the maximum discounted revenue over one quarter, ties kept like
    the reference view form.  Revenue is summed in EXACT integer cents so
    the max comparison is tie-exact; the max is a scalar aggregate (no
    global sort) and the winners filter is one vectorized pass over the
    per-supplier aggregate."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Max, Sum

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.joins import dim_join

    configure_context()
    lo = np.datetime64("1997-01-01", "us")
    hi = np.datetime64("1997-04-01", "us")
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def cents(b: pa.Table) -> pa.Table:
        price = np.asarray(b.column("l_extendedprice"), dtype=np.float64)
        disc = np.asarray(b.column("l_discount"), dtype=np.float64)
        x = price * (1.0 - disc) * 100.0
        c = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        return pa.table(
            {
                "l_suppkey": b.column("l_suppkey"),
                "cents": pa.array(c, type=pa.int64()),
            }
        )

    per_supp = (
        li.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_suppkey", num_partitions=num_partitions)
        .aggregate(Sum("cents", alias_name="rev_cents"))
        .materialize()
    )
    best = per_supp.aggregate(Max("rev_cents"))["max(rev_cents)"]

    def winners(b: pa.Table) -> pa.Table:
        keep = b.filter(pc.equal(b.column("rev_cents"), pa.scalar(best, pa.int64())))
        return pa.table(
            {
                "l_suppkey": keep.column("l_suppkey"),
                "total_revenue": round4(
                    pc.divide(pc.cast(keep.column("rev_cents"), pa.float64()), 100.0)
                ),
            }
        )

    flt = per_supp.map_batches(winners, batch_format="pyarrow", zero_copy_batch=True)
    supplier = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    return dim_join(
        flt,
        supplier,
        left_on="l_suppkey",
        right_on="s_suppkey",
        fact_schema=pa.schema(
            [("l_suppkey", pa.int64()), ("total_revenue", pa.float64())]
        ),
        dim_schema=pa.schema([("s_suppkey", pa.int64()), ("s_name", pa.string())]),
        num_partitions=num_partitions,
    )


def small_quantity_revenue(sf_dir: str, num_partitions: int = 8):
    """Correlated-aggregate threshold (TPC-H Q17 shape): revenue from
    Brand#11 lineitems whose quantity is below 20% of that part's average
    quantity.  The threshold test runs as the EXACT integer
    cross-multiplication ``5 * n * q_cents < sum_q_cents`` (q < sum/(5n)),
    so no float division can flip a boundary row.  Plan: per-part
    (n, sum_q_cents) pre-aggregate over ALL lineitems of the brand's
    parts, size-gated dim joins, one vectorized filter, one scalar sum."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import broadcast_semi_join, dim_join

    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])

    def brand_keys(b: pa.Table) -> pa.Table:
        keep = b.filter(pc.equal(b.column("p_brand"), pa.scalar("Brand#11")))
        return keep.select(["p_partkey"])

    keys = (
        part.map_batches(brand_keys, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )
    from dynaalign_ray.joins import collect_arrow

    key_tbl = collect_arrow(keys)
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
    li = broadcast_semi_join(li, key_tbl, left_on="l_partkey")

    def qcents(b: pa.Table) -> pa.Table:
        q = np.asarray(b.column("l_quantity"), dtype=np.float64) * 100.0
        qc = (np.sign(q) * np.floor(np.abs(q) + 0.5)).astype(np.int64)
        p = np.asarray(b.column("l_extendedprice"), dtype=np.float64) * 100.0
        pc_ = (np.sign(p) * np.floor(np.abs(p) + 0.5)).astype(np.int64)
        return pa.table(
            {
                "l_partkey": b.column("l_partkey"),
                "q_cents": pa.array(qc, type=pa.int64()),
                "price_cents": pa.array(pc_, type=pa.int64()),
            }
        )

    li = li.map_batches(qcents, batch_format="pyarrow", zero_copy_batch=True)
    def rename_key(b: pa.Table) -> pa.Table:
        return b.rename_columns(["l_partkey_agg", "n_li", "sum_q_cents"])

    per_part = (
        li.select_columns(["l_partkey", "q_cents"])
        .groupby("l_partkey", num_partitions=num_partitions)
        .aggregate(
            Count(alias_name="n_li"), Sum("q_cents", alias_name="sum_q_cents")
        )
        .map_batches(rename_key, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )
    j = dim_join(
        li,
        per_part,
        left_on="l_partkey",
        right_on="l_partkey_agg",
        fact_schema=pa.schema(
            [
                ("l_partkey", pa.int64()),
                ("q_cents", pa.int64()),
                ("price_cents", pa.int64()),
            ]
        ),
        dim_schema=pa.schema(
            [
                ("l_partkey_agg", pa.int64()),
                ("n_li", pa.int64()),
                ("sum_q_cents", pa.int64()),
            ]
        ),
        num_partitions=num_partitions,
        approx_dim_rows=per_part.count(),
    )

    def below(b: pa.Table) -> pa.Table:
        q = np.asarray(b.column("q_cents"), dtype=np.int64)
        n = np.asarray(b.column("n_li"), dtype=np.int64)
        s = np.asarray(b.column("sum_q_cents"), dtype=np.int64)
        keep = 5 * n * q < s
        return pa.table(
            {"price_cents": pa.array(np.asarray(b.column("price_cents"))[keep])}
        )

    from ray.data.aggregate import Count as _Count

    agg = j.map_batches(below, batch_format="pyarrow", zero_copy_batch=True).aggregate(
        Sum("price_cents", alias_name="rev_cents"), _Count(alias_name="n_items")
    )
    rev = (agg["rev_cents"] or 0) / 100.0
    return pa.table(
        {
            "avg_yearly": round4(pa.array([rev / 7.0], type=pa.float64())),
            "n_items": pa.array([agg["n_items"] or 0], type=pa.int64()),
        }
    )


def large_volume_customers(sf_dir: str, num_partitions: int = 8, min_qty: int = 300):
    """HAVING-on-join-back (TPC-H Q18 shape): orders whose total lineitem
    quantity exceeds ``min_qty``, with their customer.  Quantities are
    integral doubles -> exact int64 sum; only qualifying (orderkey,
    total_qty) rows enter the joins."""
    from ray.data.aggregate import Sum

    from dynaalign_ray.joins import dim_join, hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def qint(b: pa.Table) -> pa.Table:
        q = np.asarray(b.column("l_quantity"), dtype=np.float64)
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "q": pa.array(
                    (np.sign(q) * np.floor(np.abs(q) + 0.5)).astype(np.int64),
                    type=pa.int64(),
                ),
            }
        )

    per_order = (
        li.map_batches(qint, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_orderkey", num_partitions=num_partitions)
        .aggregate(Sum("q", alias_name="total_qty"))
    )

    def big(b: pa.Table) -> pa.Table:
        return b.filter(
            pc.greater(b.column("total_qty"), pa.scalar(min_qty, pa.int64()))
        )

    big_orders = per_order.map_batches(big, batch_format="pyarrow", zero_copy_batch=True)
    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )
    j = hash_join(
        big_orders,
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()), ("total_qty", pa.int64())]),
        right_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("o_custkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
                ("o_totalprice", pa.float64()),
            ]
        ),
        num_partitions=num_partitions,
    )
    customer = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    out = dim_join(
        j,
        customer,
        left_on="o_custkey",
        right_on="c_custkey",
        fact_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("total_qty", pa.int64()),
                ("o_custkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
                ("o_totalprice", pa.float64()),
            ]
        ),
        dim_schema=pa.schema([("c_custkey", pa.int64()), ("c_name", pa.string())]),
        num_partitions=num_partitions,
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": b.column("l_orderkey"),
                "c_name": b.column("c_name"),
                "o_orderdate": b.column("o_orderdate").cast(pa.int64()),
                "o_totalprice": round4(b.column("o_totalprice")),
                "total_qty": b.column("total_qty"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def _year_from_us(ts_us: np.ndarray) -> np.ndarray:
    """Calendar year from int64 epoch-microseconds (vectorized, matches
    SQL year(ts) for the post-1970 test range and for negative epochs,
    since datetime64 casts truncate toward -inf across unit downcasts)."""
    return (
        ts_us.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64) + 1970
    )


def two_nation_volume(sf_dir: str, num_partitions: int = 8):
    """Bidirectional nation-pair trade volume (TPC-H Q7 shape): discounted
    revenue shipped between NATION_1 and NATION_2 (both directions,
    cross-nation only) per ship year.  Plan: supplier and customer are
    pre-filtered to the two nations (the dim joins are INNER, so
    non-matching facts drop at the join); lineitem ⋈ orders is the one
    fact-fact hash join; the year extraction and the cents conversion are
    vectorized; one tiny groupby finishes."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.joins import dim_join, hash_join

    configure_context()
    nat_a, nat_b = 1, 2
    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1998-01-01", "us")
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_orderkey",
            "l_suppkey",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def li_prep(b: pa.Table) -> pa.Table:
        price = np.asarray(b.column("l_extendedprice"), dtype=np.float64)
        disc = np.asarray(b.column("l_discount"), dtype=np.float64)
        x = price * (1.0 - disc) * 100.0
        cents = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        year = _year_from_us(np.asarray(b.column("l_shipdate").cast(pa.int64())))
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_suppkey": b.column("l_suppkey"),
                "cents": pa.array(cents, type=pa.int64()),
                "l_year": pa.array(year, type=pa.int64()),
            }
        )

    li = li.map_batches(li_prep, batch_format="pyarrow", zero_copy_batch=True)
    supplier = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def supp_prep(b: pa.Table) -> pa.Table:
        nat = pc.cast(b.column("s_nationkey"), pa.int64())
        keep = pc.or_(
            pc.equal(nat, pa.scalar(nat_a, pa.int64())),
            pc.equal(nat, pa.scalar(nat_b, pa.int64())),
        )
        t = pa.table({"s_suppkey": b.column("s_suppkey"), "supp_nat": nat})
        return t.filter(keep)

    supplier = supplier.map_batches(
        supp_prep, batch_format="pyarrow", zero_copy_batch=True
    )
    j1 = dim_join(
        li,
        supplier,
        left_on="l_suppkey",
        right_on="s_suppkey",
        fact_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("cents", pa.int64()),
                ("l_year", pa.int64()),
            ]
        ),
        dim_schema=pa.schema([("s_suppkey", pa.int64()), ("supp_nat", pa.int64())]),
        num_partitions=num_partitions,
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    j2 = hash_join(
        j1,
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("cents", pa.int64()),
                ("l_year", pa.int64()),
                ("supp_nat", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
        num_partitions=num_partitions,
    )
    customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_prep(b: pa.Table) -> pa.Table:
        nat = pc.cast(b.column("c_nationkey"), pa.int64())
        keep = pc.or_(
            pc.equal(nat, pa.scalar(nat_a, pa.int64())),
            pc.equal(nat, pa.scalar(nat_b, pa.int64())),
        )
        t = pa.table({"c_custkey": b.column("c_custkey"), "cust_nat": nat})
        return t.filter(keep)

    customer = customer.map_batches(
        cust_prep, batch_format="pyarrow", zero_copy_batch=True
    )
    j3 = dim_join(
        j2,
        customer,
        left_on="o_custkey",
        right_on="c_custkey",
        fact_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("cents", pa.int64()),
                ("l_year", pa.int64()),
                ("supp_nat", pa.int64()),
                ("o_custkey", pa.int64()),
            ]
        ),
        dim_schema=pa.schema([("c_custkey", pa.int64()), ("cust_nat", pa.int64())]),
        num_partitions=num_partitions,
    )

    def cross_only(b: pa.Table) -> pa.Table:
        keep = pc.not_equal(b.column("supp_nat"), b.column("cust_nat"))
        return b.filter(keep).select(["supp_nat", "cust_nat", "l_year", "cents"])

    agg = (
        j3.map_batches(cross_only, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["supp_nat", "cust_nat", "l_year"], num_partitions=num_partitions)
        .aggregate(Sum("cents", alias_name="rev_cents"), Count(alias_name="n_items"))
    )
    # driver fold: the aggregate is bounded by 2 nation pairs x ship years —
    # folding it keeps the output schema typed even when zero pairs exist
    # (an empty grouped Dataset drops its schema through a final map stage)
    from dynaalign_ray.joins import collect_arrow

    b = collect_arrow(agg)
    sn = np.asarray(b.column("supp_nat")) if b.num_rows else np.array([], dtype=np.int64)
    cn = np.asarray(b.column("cust_nat")) if b.num_rows else np.array([], dtype=np.int64)
    rev = (
        np.asarray(b.column("rev_cents"), dtype=np.float64)
        if b.num_rows
        else np.array([], dtype=np.float64)
    )
    return pa.table(
        {
            "supp_nation": pa.array([f"NATION_{v}" for v in sn], type=pa.string()),
            "cust_nation": pa.array([f"NATION_{v}" for v in cn], type=pa.string()),
            "l_year": pa.array(
                np.asarray(b.column("l_year"), dtype=np.int64)
                if b.num_rows
                else np.array([], dtype=np.int64),
                type=pa.int64(),
            ),
            "revenue": round4(rev / 100.0),
            "n_items": pa.array(
                np.asarray(b.column("n_items"), dtype=np.int64)
                if b.num_rows
                else np.array([], dtype=np.int64),
                type=pa.int64(),
            ),
        }
    )


def nation_market_share(sf_dir: str, num_partitions: int = 8):
    """Year-over-year market share (TPC-H Q8 shape): among lineitems sold
    to customers of region REGION_0 in 1996-1997, the share supplied by
    NATION_3 per order year.  Both the numerator and the denominator are
    EXACT integer cent sums, so the share divides two exact int64s —
    bit-identical doubles on both engines.  Plan: region-0 customers
    become a broadcast semi-join keyset on orders; supplier nationality is
    a 0/1 flag from a size-gated dim join; lineitem ⋈ orders is the one
    fact-fact hash join."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Sum

    from dynaalign_ray.exec import configure_context
    from dynaalign_ray.joins import (
        broadcast_join,
        broadcast_semi_join,
        collect_arrow,
        dim_join,
        hash_join,
    )

    configure_context()
    target_nat = 3
    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1998-01-01", "us")

    # region-0 customer keyset: customer ⋈ nation (tiny broadcast)
    nation = collect_arrow(_read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]))
    region0 = nation.filter(
        pc.equal(nation.column("n_regionkey"), pa.scalar(0, pa.int32()))
    )
    r0_nats = set(np.asarray(region0.column("n_nationkey")).tolist())
    customer = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])

    def cust_keys(b: pa.Table) -> pa.Table:
        nat = np.asarray(b.column("c_nationkey")).astype(np.int64)
        keep = np.isin(nat, np.asarray(sorted(r0_nats), dtype=np.int64))
        return pa.table({"c_custkey": pa.array(np.asarray(b.column("c_custkey"))[keep])})

    cust_keys_tbl = collect_arrow(
        customer.map_batches(cust_keys, batch_format="pyarrow", zero_copy_batch=True)
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    )
    orders = broadcast_semi_join(orders, cust_keys_tbl, left_on="o_custkey")

    def o_prep(b: pa.Table) -> pa.Table:
        year = _year_from_us(np.asarray(b.column("o_orderdate").cast(pa.int64())))
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_year": pa.array(year, type=pa.int64()),
            }
        )

    orders = orders.map_batches(o_prep, batch_format="pyarrow", zero_copy_batch=True)
    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    )

    def li_prep(b: pa.Table) -> pa.Table:
        price = np.asarray(b.column("l_extendedprice"), dtype=np.float64)
        disc = np.asarray(b.column("l_discount"), dtype=np.float64)
        x = price * (1.0 - disc) * 100.0
        cents = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_suppkey": b.column("l_suppkey"),
                "cents": pa.array(cents, type=pa.int64()),
            }
        )

    li = li.map_batches(li_prep, batch_format="pyarrow", zero_copy_batch=True)
    supplier = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def supp_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "s_suppkey": b.column("s_suppkey"),
                "supp_nat": pc.cast(b.column("s_nationkey"), pa.int64()),
            }
        )

    supplier = supplier.map_batches(
        supp_prep, batch_format="pyarrow", zero_copy_batch=True
    )
    j1 = dim_join(
        li,
        supplier,
        left_on="l_suppkey",
        right_on="s_suppkey",
        fact_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("cents", pa.int64()),
            ]
        ),
        dim_schema=pa.schema([("s_suppkey", pa.int64()), ("supp_nat", pa.int64())]),
        num_partitions=num_partitions,
    )
    j2 = hash_join(
        j1,
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("cents", pa.int64()),
                ("supp_nat", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("o_year", pa.int64())]),
        num_partitions=num_partitions,
    )

    def flag(b: pa.Table) -> pa.Table:
        cents = np.asarray(b.column("cents"), dtype=np.int64)
        is_t = (
            np.asarray(b.column("supp_nat"), dtype=np.int64) == target_nat
        ).astype(np.int64)
        return pa.table(
            {
                "o_year": b.column("o_year"),
                "nat_cents": pa.array(cents * is_t, type=pa.int64()),
                "all_cents": pa.array(cents, type=pa.int64()),
            }
        )

    agg = (
        j2.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_year", num_partitions=num_partitions)
        .aggregate(
            Sum("nat_cents", alias_name="nat_cents"),
            Sum("all_cents", alias_name="all_cents"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        nat = np.asarray(b.column("nat_cents"), dtype=np.float64)
        allc = np.asarray(b.column("all_cents"), dtype=np.float64)
        return pa.table(
            {
                "o_year": b.column("o_year"),
                "mkt_share": round4(nat / allc),
                "total_revenue": round4(allc / 100.0),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def returned_item_ranking(sf_dir: str, num_partitions: int = 8, k: int = 20):
    """Returned-revenue customer ranking (TPC-H Q10 shape): top-k customers
    by revenue from RETURNED lineitems whose order landed in one quarter.
    Exact cents + (revenue DESC, custkey ASC) total order make the top-k
    boundary deterministic; the ranking itself is the engine's partial
    top-k (per-block prune -> bounded driver fold), never a global sort."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Sum

    from dynaalign_ray.exec import configure_context, partial_topk
    from dynaalign_ray.joins import broadcast_join, collect_arrow, dim_join, hash_join

    configure_context()
    lo = np.datetime64("1997-07-01", "us")
    hi = np.datetime64("1997-10-01", "us")
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    ).drop_columns(["o_orderdate"])
    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"]
    )

    def returned_cents(b: pa.Table) -> pa.Table:
        keep = pc.equal(b.column("l_returnflag"), pa.scalar("R"))
        t = b.filter(keep)
        price = np.asarray(t.column("l_extendedprice"), dtype=np.float64)
        disc = np.asarray(t.column("l_discount"), dtype=np.float64)
        x = price * (1.0 - disc) * 100.0
        cents = (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "cents": pa.array(cents, type=pa.int64()),
            }
        )

    li = li.map_batches(returned_cents, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(
        li,
        orders,
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()), ("cents", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
        num_partitions=num_partitions,
    )
    per_cust = (
        j.select_columns(["o_custkey", "cents"])
        .groupby("o_custkey", num_partitions=num_partitions)
        .aggregate(Sum("cents", alias_name="rev_cents"))
    )
    top = partial_topk(
        per_cust, [("rev_cents", "descending"), ("o_custkey", "ascending")], k
    )
    customer = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    out = dim_join(
        top,
        customer,
        left_on="o_custkey",
        right_on="c_custkey",
        fact_schema=pa.schema([("o_custkey", pa.int64()), ("rev_cents", pa.int64())]),
        dim_schema=pa.schema(
            [
                ("c_custkey", pa.int64()),
                ("c_name", pa.string()),
                ("c_nationkey", pa.int32()),
            ]
        ),
        num_partitions=num_partitions,
    )
    nation = collect_arrow(_read(sf_dir, "nation", ["n_nationkey", "n_name"]))
    out = broadcast_join(
        out,
        nation,
        left_on="c_nationkey",
        right_on="n_nationkey",
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": b.column("o_custkey"),
                "c_name": b.column("c_name"),
                "revenue": round4(
                    pc.divide(pc.cast(b.column("rev_cents"), pa.float64()), 100.0)
                ),
                "n_name": b.column("n_name"),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def q6_forecast_revenue(sf_dir: str):
    """Single-filter scan aggregate (TPC-H Q6 shape): forecast-revenue
    change from one year of lineitems in a discount band below a quantity
    cap.  The date range is pushed into the parquet read (row-group
    pruning), the discount/quantity band is one vectorized batch filter,
    and each block emits ONE partial-sums row — the driver combines
    block-count rows into the single-row answer, so nothing wide ever
    shuffles.  Revenue is summed in exact integer hundredths-of-a-cent
    (price has 2 decimals, discount 2 decimals -> price*100 * disc*100 is
    integral), so the sum is order-independent and the final division is
    bit-identical to the oracle's DECIMAL sum."""
    import pyarrow.dataset as pads

    lo = np.datetime64("1996-01-01", "us")
    hi = np.datetime64("1997-01-01", "us")
    import ray.data as rd

    from dynaalign_ray.exec import configure_context

    configure_context()
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def partial(b: pa.Table) -> pa.Table:
        qty = np.asarray(b.column("l_quantity"), dtype=np.float64)
        disc = np.asarray(b.column("l_discount"), dtype=np.float64)
        price = np.asarray(b.column("l_extendedprice"), dtype=np.float64)
        keep = (disc >= 0.02) & (disc <= 0.06) & (qty < 24.0)
        # exact integer units: cents * discount-hundredths (both 2-decimal)
        units = np.rint(price[keep] * 100.0).astype(np.int64) * np.rint(
            disc[keep] * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "rev_units": pa.array([int(units.sum())], type=pa.int64()),
                "n_items": pa.array([int(keep.sum())], type=pa.int64()),
            }
        )

    parts = li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    from dynaalign_ray.joins import collect_arrow

    t = collect_arrow(parts)  # block-count rows: two int64s per block
    units = int(np.asarray(t.column("rev_units"), dtype=np.int64).sum())
    n = int(np.asarray(t.column("n_items"), dtype=np.int64).sum())
    return pa.table(
        {
            # units are price_cents * disc_hundredths = revenue * 10^4
            "revenue": round4(np.array([units / 10_000.0])),
            "n_items": pa.array([n], type=pa.int64()),
        }
    )


def suppliers_kept_waiting(sf_dir: str, num_partitions: int = 8, k: int = 25):
    """Double-correlated EXISTS / NOT EXISTS (TPC-H Q21 shape, adapted to
    this schema): suppliers who were the SOLE late supplier on a finished
    multi-supplier order (late = shipped more than 60 days after the order
    date).  Decorrelation: after the one fact-fact orderkey join (status
    filter pushed to the orders read), a keyed repartition co-locates each
    order's lineitems and a per-block Arrow pass reduces every order to
    (n_distinct_suppliers, n_distinct_late_suppliers, the_late_supplier) —
    the EXISTS ("another supplier shipped") and NOT EXISTS ("no OTHER
    supplier was late") collapse to ns > 1 AND nl == 1.  Per-supplier
    blame counts then aggregate over one narrow int column, the supplier
    name rides the size-gated dim join, and the final top-k is the
    per-block partial pattern (numwait DESC, s_name ASC — a total order)."""
    import pyarrow.dataset as pads
    import ray.data as rd

    from ray.data.aggregate import Count

    from dynaalign_ray.exec import configure_context, partial_topk
    from dynaalign_ray.joins import dim_join, hash_join

    configure_context()
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_orderdate"],
        filter=pads.field("o_orderstatus") == "F",
    )

    def o_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "orderdate_us": b.column("o_orderdate").cast(pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])

    def l_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_suppkey": b.column("l_suppkey"),
                "ship_us": b.column("l_shipdate").cast(pa.int64()),
            }
        )

    j = hash_join(
        li.map_batches(l_prep, batch_format="pyarrow", zero_copy_batch=True),
        orders.map_batches(o_prep, batch_format="pyarrow", zero_copy_batch=True),
        left_on="l_orderkey",
        right_on="o_orderkey",
        left_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_suppkey", pa.int64()),
                ("ship_us", pa.int64()),
            ]
        ),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("orderdate_us", pa.int64())]),
        num_partitions=num_partitions,
    )
    sixty_days_us = 60 * 86_400 * 1_000_000

    def blame_block(b: pa.Table) -> pa.Table:
        """Rows for an orderkey are co-located; emit the sole-late supplier
        of each qualifying order."""
        if b.num_rows == 0:
            return pa.schema([("l_suppkey", pa.int64())]).empty_table()
        late = pc.greater(
            b.column("ship_us"),
            pc.add(b.column("orderdate_us"), pa.scalar(sixty_days_us, type=pa.int64())),
        )
        t = pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_suppkey": b.column("l_suppkey"),
                "late": pc.cast(late, pa.int8()),
            }
        )
        order = pc.sort_indices(
            t, sort_keys=[("l_orderkey", "ascending"), ("l_suppkey", "ascending")]
        )
        t = t.take(order)
        ok = np.asarray(t.column("l_orderkey"), dtype=np.int64)
        sk = np.asarray(t.column("l_suppkey"), dtype=np.int64)
        lt = np.asarray(t.column("late"), dtype=np.int8).astype(bool)
        # distinct (order, supplier) runs after the lexsort
        first_pair = np.empty(len(ok), dtype=bool)
        first_pair[0] = True
        first_pair[1:] = (np.diff(ok) != 0) | (np.diff(sk) != 0)
        # per-(order,supplier): any late lineitem?  segment-or via maximum.at
        pair_idx = np.cumsum(first_pair) - 1
        n_pairs = int(pair_idx[-1]) + 1
        pair_late = np.zeros(n_pairs, dtype=bool)
        np.logical_or.at(pair_late, pair_idx, lt)
        pair_order = ok[first_pair]
        pair_supp = sk[first_pair]
        # per-order: distinct-supplier count and late-supplier count
        first_ord = np.empty(n_pairs, dtype=bool)
        first_ord[0] = True
        first_ord[1:] = np.diff(pair_order) != 0
        ord_idx = np.cumsum(first_ord) - 1
        n_ord = int(ord_idx[-1]) + 1
        ns = np.zeros(n_ord, dtype=np.int64)
        np.add.at(ns, ord_idx, 1)
        nl = np.zeros(n_ord, dtype=np.int64)
        np.add.at(nl, ord_idx, pair_late.astype(np.int64))
        qualify = (ns > 1) & (nl == 1)
        # the sole late supplier of each qualifying order
        take_pair = qualify[ord_idx] & pair_late
        return pa.table({"l_suppkey": pa.array(pair_supp[take_pair], type=pa.int64())})

    blamed = j.repartition(num_blocks=num_partitions, keys=["l_orderkey"]).map_batches(
        blame_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
    counts = blamed.groupby("l_suppkey", num_partitions=num_partitions).aggregate(
        Count(alias_name="numwait")
    )
    supplier = _read(sf_dir, "supplier", ["s_suppkey", "s_name"])
    named = dim_join(
        counts,
        supplier,
        left_on="l_suppkey",
        right_on="s_suppkey",
        fact_schema=pa.schema([("l_suppkey", pa.int64()), ("numwait", pa.int64())]),
        dim_schema=pa.schema([("s_suppkey", pa.int64()), ("s_name", pa.string())]),
        num_partitions=num_partitions,
    ).select_columns(["s_name", "numwait"])
    return partial_topk(named, [("numwait", "descending"), ("s_name", "ascending")], k)


def events_type_cooccur(sf_dir: str, num_partitions: int = 8):
    """Co-engagement pairs: for every unordered pair of event types, how
    many distinct users triggered BOTH.  The bipartite-projection shape
    (user x type -> type x type) that powers collaborative filtering and
    feature co-occurrence.  Plan: one groupby gives the distinct
    (user, type) edge set; a keyed repartition co-locates each user's
    types; each user emits C(t, 2) pairs where t <= |distinct types| (a
    small constant per user — the projection is bounded, never quadratic
    in users); one final narrow groupby counts.  Mirrors the bounded
    C(W,2)/block shuffle argument of doc_cooccurrence."""
    from ray.data.aggregate import Count

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    edges = ev.groupby(["user_id", "event_type"], num_partitions=num_partitions).aggregate(
        Count(alias_name="_n")
    )

    def pairs_block(b: pa.Table) -> pa.Table:
        empty = pa.schema([("type_a", pa.string()), ("type_b", pa.string())]).empty_table()
        if b.num_rows == 0:
            return empty
        order = pc.sort_indices(
            b, sort_keys=[("user_id", "ascending"), ("event_type", "ascending")]
        )
        t = b.take(order)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        # segment-vectorized per-user type-pair triu (shared
        # bands.segment_triu_rows kernel); types gathered via Arrow take
        from dynaalign_ray.stages.bands import segment_triu_rows

        n = len(uid)
        boundary = np.ones(n, dtype=bool)
        boundary[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(boundary)
        ends = np.append(starts[1:], n)
        a_rows, b_rows = segment_triu_rows(starts, ends, (ends - starts) >= 2)
        if len(a_rows) == 0:
            return empty
        types_col = t.column("event_type").combine_chunks()
        out_a = types_col.take(pa.array(a_rows, type=pa.int64()))
        out_b = types_col.take(pa.array(b_rows, type=pa.int64()))
        return pa.table({"type_a": out_a, "type_b": out_b})

    pairs = edges.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        pairs_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
    return pairs.groupby(["type_a", "type_b"], num_partitions=num_partitions).aggregate(
        Count(alias_name="n_users")
    )


def events_time_weighted_value(sf_dir: str, num_partitions: int = 8):
    """Per-user TIME-WEIGHTED average value: each event's value is weighted
    by how long it was "current" (the gap to the user's next event) — the
    LEAD-window shape used for time-in-state metrics.  One keyed
    repartition co-locates a user's events; a per-block lexsort on
    (user, ts, event_id) gives deltas vectorized across the whole block.
    Sufficient stats are exact int64s (value-cents x gap-microseconds,
    bounded well under 2^63 at any per-user history the schema can hold),
    so the final division is bit-identical to the oracle's."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def tw_block(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                ("user_id", pa.int64()),
                ("tw_avg_value", pa.float64()),
                ("n_gaps", pa.int64()),
            ]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        t = pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": b.column("ts").cast(pa.int64()),
                "event_id": b.column("event_id"),
                "cents": pc.cast(
                    pc.round(pc.multiply(b.column("value"), pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("user_id", "ascending"),
                ("ts_us", "ascending"),
                ("event_id", "ascending"),
            ],
        )
        t = t.take(order)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        cents = np.asarray(t.column("cents"), dtype=np.int64)
        n = len(uid)
        if n < 2:
            return empty
        same_user = uid[1:] == uid[:-1]
        gap = ts[1:] - ts[:-1]  # valid where same_user
        w = cents[:-1]
        # segment sums per user over the same-user positions
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = ~same_user
        seg = np.cumsum(first) - 1
        n_seg = int(seg[-1]) + 1
        wsum = np.zeros(n_seg, dtype=np.int64)
        gsum = np.zeros(n_seg, dtype=np.int64)
        cnt = np.zeros(n_seg, dtype=np.int64)
        valid = same_user
        idx = seg[:-1][valid]
        np.add.at(wsum, idx, w[valid] * gap[valid])
        np.add.at(gsum, idx, gap[valid])
        np.add.at(cnt, idx, 1)
        users = uid[first]
        keep = cnt > 0
        # identical int64s divide on both sides -> bit-identical doubles
        avg = round4(
            wsum[keep].astype(np.float64) / gsum[keep].astype(np.float64) / 100.0
        )
        return pa.table(
            {
                "user_id": pa.array(users[keep], type=pa.int64()),
                "tw_avg_value": avg,
                "n_gaps": pa.array(cnt[keep], type=pa.int64()),
            }
        )

    return ev.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        tw_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def user_event_paths(sf_dir: str, limit: int = 10, num_partitions: int = 8):
    """Ordered sequence assembly (string_agg ORDER BY shape): each user's
    first ``limit`` event types, in (ts, event_id) order, joined with
    '>' — the clickstream-path feature.  Keyed repartition + one
    per-block lexsort; the per-user string join touches at most ``limit``
    elements, so output rows are O(users) and bounded-width."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def path_block(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                ("user_id", pa.int64()),
                ("path", pa.string()),
                ("n_events", pa.int64()),
            ]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        t = pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": b.column("ts").cast(pa.int64()),
                "event_id": b.column("event_id"),
                "event_type": b.column("event_type"),
            }
        )
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("user_id", "ascending"),
                ("ts_us", "ascending"),
                ("event_id", "ascending"),
            ],
        )
        t = t.take(order)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        types = t.column("event_type").to_pylist()
        users: list[int] = []
        paths: list[str] = []
        counts: list[int] = []
        start = 0
        n = len(uid)
        for i in range(1, n + 1):
            if i == n or uid[i] != uid[start]:
                users.append(int(uid[start]))
                paths.append(">".join(types[start : min(i, start + limit)]))
                counts.append(i - start)
                start = i
        return pa.table(
            {
                "user_id": pa.array(users, type=pa.int64()),
                "path": pa.array(paths, type=pa.string()),
                "n_events": pa.array(counts, type=pa.int64()),
            }
        )

    return ev.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        path_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def active_user_set_ops(
    sf_dir: str, type_a: str = "purchase", type_b: str = "error", num_partitions: int = 8
):
    """Distinct-set algebra (INTERSECT / EXCEPT / UNION shape) between the
    user sets of two event types, reported as one row of four counts.
    Plan: one filtered groupby reduces events to per-user membership
    flags (conditional Max over 0/1 — the distinct sets never
    materialize); each block then emits ONE partial-counts row and the
    driver folds block-count scalars."""
    from ray.data.aggregate import Max

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def flags(b: pa.Table) -> pa.Table:
        is_a = pc.cast(pc.equal(b.column("event_type"), pa.scalar(type_a)), pa.int64())
        is_b = pc.cast(pc.equal(b.column("event_type"), pa.scalar(type_b)), pa.int64())
        keep = pc.or_(pc.equal(is_a, 1), pc.equal(is_b, 1))
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "in_a": is_a,
                "in_b": is_b,
            }
        ).filter(keep)

    per_user = (
        ev.map_batches(flags, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id", num_partitions=num_partitions)
        .aggregate(Max("in_a", alias_name="a"), Max("in_b", alias_name="b"))
    )

    def partial(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        bb = np.asarray(b.column("b"), dtype=np.int64)
        return pa.table(
            {
                "n_both": pa.array([int(((a == 1) & (bb == 1)).sum())], pa.int64()),
                "n_a_only": pa.array([int(((a == 1) & (bb == 0)).sum())], pa.int64()),
                "n_b_only": pa.array([int(((a == 0) & (bb == 1)).sum())], pa.int64()),
                "n_either": pa.array([len(a)], pa.int64()),
            }
        )

    from dynaalign_ray.joins import collect_arrow

    t = collect_arrow(
        per_user.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    out = {
        c: pa.array([int(np.asarray(t.column(c), dtype=np.int64).sum())], pa.int64())
        for c in ["n_both", "n_a_only", "n_b_only", "n_either"]
    }
    return pa.table(out)


def lineitem_qty_discount_corr(sf_dir: str, num_partitions: int = 8):
    """Grouped Pearson correlation (quantity vs discount per returnflag)
    from EXACT integer sufficient statistics: both variables are
    fixed-decimal (quantity integral, discount 2-decimal -> x100), so the
    six per-group sums (n, Sx, Sy, Sxy, Sxx, Syy) accumulate as exact
    int64s inside one block-partial pass + one tiny groupby — correlation
    never sees raw rows twice and no float is summed distributively.
    The final r = (n*Sxy - Sx*Sy) / (sqrt(n*Sxx - Sx^2) * sqrt(n*Syy -
    Sy^2)) evaluates ONE fixed float tree over int64s below 2^53 (bound
    documented: group_rows * max_x * max_y * n < 2^53 at any realistic
    group), mirrored verbatim in the oracle — bit-identical doubles."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_discount"])

    def partials(b: pa.Table) -> pa.Table:
        x = np.asarray(b.column("l_quantity"), dtype=np.float64).astype(np.int64)
        y = np.rint(np.asarray(b.column("l_discount"), dtype=np.float64) * 100.0).astype(
            np.int64
        )
        t = pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "n": pa.array(np.ones(len(x), dtype=np.int64)),
                "sx": pa.array(x),
                "sy": pa.array(y),
                "sxy": pa.array(x * y),
                "sxx": pa.array(x * x),
                "syy": pa.array(y * y),
            }
        )
        # per-block pre-aggregation: the shuffle carries one row per
        # (block, returnflag)
        return t.group_by(["l_returnflag"]).aggregate(
            [(c, "sum") for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]]
        ).rename_columns(["l_returnflag", "n", "sx", "sy", "sxy", "sxx", "syy"])

    agg = (
        li.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("l_returnflag", num_partitions=num_partitions)
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"),
            Sum("syy", alias_name="syy"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = np.asarray(b.column("n"), dtype=np.float64)
        sx = np.asarray(b.column("sx"), dtype=np.float64)
        sy = np.asarray(b.column("sy"), dtype=np.float64)
        sxy = np.asarray(b.column("sxy"), dtype=np.float64)
        sxx = np.asarray(b.column("sxx"), dtype=np.float64)
        syy = np.asarray(b.column("syy"), dtype=np.float64)
        num = n * sxy - sx * sy
        den = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
        r = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "n": b.column("n"),
                "corr_qd": round4(r),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def events_dau_wau(sf_dir: str, num_partitions: int = 8):
    """DAU / trailing-7-day WAU (the operational stickiness metric) — a
    SLIDING-WINDOW DISTINCT count, which no plain window aggregate can
    express: a user active on day d is WAU-active on days d..d+6.  Plan:
    one groupby gives the distinct (day, user) pairs; each pair re-emits
    itself at the 7 observation days it covers (constant fan-out); a
    second distinct-groupby collapses users seen on several days inside
    one window; per-day counts then join driver-side (the day table is
    tiny — days, not rows).  Only days with >= 1 event are reported.
    Exact integers; the ratio divides identical doubles on both sides."""
    from ray.data.aggregate import Count

    ev = _read(sf_dir, "events", ["ts", "user_id"])
    day_us = 86_400_000_000

    def to_day(b: pa.Table) -> pa.Table:
        ts = np.asarray(b.column("ts").cast(pa.int64()), dtype=np.int64)
        return pa.table(
            {
                "day": pa.array(ts // day_us, type=pa.int64()),
                "user_id": b.column("user_id"),
            }
        )

    du = (
        ev.map_batches(to_day, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["day", "user_id"], num_partitions=num_partitions)
        .aggregate(Count(alias_name="_n"))
        .select_columns(["day", "user_id"])
    )
    dau = du.groupby("day", num_partitions=num_partitions).aggregate(
        Count(alias_name="dau")
    )

    def fan_out(b: pa.Table) -> pa.Table:
        day = np.asarray(b.column("day"), dtype=np.int64)
        uid = np.asarray(b.column("user_id"), dtype=np.int64)
        obs = (day[:, None] + np.arange(7, dtype=np.int64)[None, :]).ravel()
        return pa.table(
            {
                "obs_day": pa.array(obs, type=pa.int64()),
                "user_id": pa.array(np.repeat(uid, 7), type=pa.int64()),
            }
        )

    wau = (
        du.map_batches(fan_out, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["obs_day", "user_id"], num_partitions=num_partitions)
        .aggregate(Count(alias_name="_n"))
        .groupby("obs_day", num_partitions=num_partitions)
        .aggregate(Count(alias_name="wau"))
    )
    from dynaalign_ray.joins import collect_arrow

    # day-grain tables: rows == #days, a driver-side merge is O(days)
    dau_t = collect_arrow(dau)
    wau_t = collect_arrow(wau)
    dau_map = dict(
        zip(
            np.asarray(dau_t.column("day"), dtype=np.int64).tolist(),
            np.asarray(dau_t.column("dau"), dtype=np.int64).tolist(),
        )
    )
    wau_map = dict(
        zip(
            np.asarray(wau_t.column("obs_day"), dtype=np.int64).tolist(),
            np.asarray(wau_t.column("wau"), dtype=np.int64).tolist(),
        )
    )
    days = sorted(dau_map)  # only days that actually have events
    d = np.array([dau_map[k] for k in days], dtype=np.float64)
    w = np.array([wau_map[k] for k in days], dtype=np.float64)
    return pa.table(
        {
            "day": pa.array(days, type=pa.int64()),
            "dau": pa.array([dau_map[k] for k in days], type=pa.int64()),
            "wau": pa.array([wau_map[k] for k in days], type=pa.int64()),
            "stickiness": round4(d / w),
        }
    )


def orders_profile(sf_dir: str, num_partitions: int = 8):
    """Data-profiling pass (the schema-audit operator): per profiled
    column, null count, exact distinct count, and lexicographic min/max of
    the string form — one row per column.  Plan: a long-form per-block
    pass emits each column's BLOCK-distinct string values (pc.unique per
    column — the shuffle carries distinct values, not rows), one
    (column, value) groupby globalizes them, and a second groupby per
    column reduces to (n_distinct, min, max); null counts are one-row
    block partials folded driver-side.  Two scans total — the standard
    profiling trade (values pass + metadata pass); output is
    column-grain, so the driver holds #columns rows."""
    from ray.data.aggregate import Count, Max, Min

    from dynaalign_ray.joins import collect_arrow

    cols = ["o_orderstatus", "o_orderpriority", "o_custkey", "o_orderkey"]
    orders = _read(sf_dir, "orders", cols)

    def longform(b: pa.Table) -> pa.Table:
        tables = []
        for c in cols:
            u = pc.unique(pc.cast(b.column(c), pa.string())).drop_null()
            tables.append(
                pa.table(
                    {
                        "col_name": pa.array([c] * len(u), pa.string()),
                        "val": u,
                    }
                )
            )
        return pa.concat_tables(tables)

    stats = (
        orders.map_batches(longform, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["col_name", "val"], num_partitions=num_partitions)
        .aggregate(Count(alias_name="_n"))
        .groupby("col_name", num_partitions=num_partitions)
        .aggregate(
            Count(alias_name="n_distinct"),
            Min("val", alias_name="min_val"),
            Max("val", alias_name="max_val"),
        )
    )

    def null_partial(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "col_name": pa.array(cols, pa.string()),
                "n_nulls": pa.array(
                    [b.column(c).null_count for c in cols], pa.int64()
                ),
            }
        )

    nulls_t = collect_arrow(
        orders.map_batches(null_partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    null_map: dict[str, int] = {}
    for cn, nn in zip(
        nulls_t.column("col_name").to_pylist(),
        np.asarray(nulls_t.column("n_nulls"), dtype=np.int64).tolist(),
    ):
        null_map[cn] = null_map.get(cn, 0) + nn
    stats_t = collect_arrow(stats)  # column-grain: #profiled-columns rows
    order = pc.sort_indices(stats_t, sort_keys=[("col_name", "ascending")])
    stats_t = stats_t.take(order)
    names = stats_t.column("col_name").to_pylist()
    return pa.table(
        {
            "col_name": stats_t.column("col_name"),
            "n_nulls": pa.array([null_map[c] for c in names], pa.int64()),
            "n_distinct": stats_t.column("n_distinct").cast(pa.int64()),
            "min_val": stats_t.column("min_val"),
            "max_val": stats_t.column("max_val"),
        }
    )


def events_user_drawdown(sf_dir: str, num_partitions: int = 8):
    """Per-event DRAWDOWN from the user's running maximum (the
    cumulative-extreme window shape: max OVER rows-unbounded-preceding
    minus current).  One keyed repartition + one lexsort per block; the
    segment-reset cumulative max is fully vectorized with the
    encode-cummax-decode trick (segment_index * 10^9 + cents is monotone
    across segment boundaries because cents < 10^9, so one global
    np.maximum.accumulate does every per-user cummax at once).  Exact
    integer cents end to end."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def dd_block(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("drawdown_cents", pa.int64()),
            ]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        t = pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": b.column("ts").cast(pa.int64()),
                "event_id": b.column("event_id"),
                "cents": pc.cast(
                    pc.round(pc.multiply(b.column("value"), pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("user_id", "ascending"),
                ("ts_us", "ascending"),
                ("event_id", "ascending"),
            ],
        )
        t = t.take(order)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        cents = np.asarray(t.column("cents"), dtype=np.int64)
        n = len(uid)
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(first) - 1
        # the packed cummax below is only monotone across segment
        # boundaries when 0 <= cents < 10^9: a negative value would leak
        # the previous user's running max into the next segment, so the
        # non-negativity assumption is enforced loudly, not assumed
        if n and (int(cents.min()) < 0 or int(cents.max()) >= 1_000_000_000):
            raise ValueError(
                "events_user_drawdown: event values must satisfy "
                "0 <= round(value*100) < 10^9 for the packed cummax "
                f"(got min={cents.min()} max={cents.max()} cents); "
                "rebase values to non-negative before this stage"
            )
        encoded = seg * 1_000_000_000 + cents  # cents in [0, 10^9): monotone in seg
        run_max = np.maximum.accumulate(encoded) - seg * 1_000_000_000
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "drawdown_cents": pa.array(run_max - cents, pa.int64()),
            }
        )

    return ev.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        dd_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def part_size_price_spearman(sf_dir: str, num_partitions: int = 8):
    """SPEARMAN rank correlation between part size and retail price —
    the monotone-association statistic, exact to the last bit: average
    fractional ranks with ties are carried as DOUBLED integer ranks
    (r2 = 2*preceding + equal + 1, always integral), so rho is a Pearson
    over exact int64 pairs.  Plan: one histogram groupby per column (the
    shuffle carries distinct values, not rows), driver builds the two
    value -> doubled-rank maps (bounded by each column's value-domain
    size — broadcast-scale for fixed-decimal business columns), a second
    pass maps rows and emits ONE partial-sums row per block, and the
    driver folds exact Python ints (the int64 block partials bound
    n^3 < 2^63 -> n < ~2M rows; past that the partials widen to the
    HUGEINT-style two-limb fold documented in doc_degree_assortativity).
    The final float tree mirrors the oracle verbatim."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import collect_arrow

    part = _read(sf_dir, "part", ["p_size", "p_retailprice"])

    def to_ints(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "x": b.column("p_size").cast(pa.int64()),
                "y": pc.cast(
                    pc.round(pc.multiply(b.column("p_retailprice"), pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )

    ints = part.map_batches(to_ints, batch_format="pyarrow", zero_copy_batch=True).materialize()

    def rank_map(col: str) -> tuple[np.ndarray, np.ndarray]:
        hist = collect_arrow(
            ints.groupby(col, num_partitions=num_partitions).aggregate(
                Count(alias_name="cnt")
            )
        )
        v = np.asarray(hist.column(col), dtype=np.int64)
        c = np.asarray(hist.column("cnt"), dtype=np.int64)
        o = np.argsort(v)
        v, c = v[o], c[o]
        preceding = np.concatenate([[0], np.cumsum(c)[:-1]])
        r2 = 2 * preceding + c + 1  # doubled average rank: always integral
        return v, r2

    vx, r2x_map = rank_map("x")
    vy, r2y_map = rank_map("y")

    def partial(b: pa.Table) -> pa.Table:
        x = np.asarray(b.column("x"), dtype=np.int64)
        y = np.asarray(b.column("y"), dtype=np.int64)
        rx = r2x_map[np.searchsorted(vx, x)]
        ry = r2y_map[np.searchsorted(vy, y)]
        return pa.table(
            {
                "n": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(rx.sum())], pa.int64()),
                "sy": pa.array([int(ry.sum())], pa.int64()),
                "sxy": pa.array([int((rx * ry).sum())], pa.int64()),
                "sxx": pa.array([int((rx * rx).sum())], pa.int64()),
                "syy": pa.array([int((ry * ry).sum())], pa.int64()),
            }
        )

    t = collect_arrow(
        ints.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    n = int(np.asarray(t.column("n"), dtype=np.int64).sum())
    sx = int(np.asarray(t.column("sx"), dtype=np.int64).sum())
    sy = int(np.asarray(t.column("sy"), dtype=np.int64).sum())
    sxy = int(np.asarray(t.column("sxy"), dtype=np.int64).sum())
    sxx = int(np.asarray(t.column("sxx"), dtype=np.int64).sum())
    syy = int(np.asarray(t.column("syy"), dtype=np.int64).sum())
    num = float(n) * float(sxy) - float(sx) * float(sy)
    den = np.sqrt(float(n) * float(sxx) - float(sx) * float(sx)) * np.sqrt(
        float(n) * float(syy) - float(sy) * float(sy)
    )
    rho = num / den if den > 0 else 0.0
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "spearman_rho": round4(np.array([rho])),
        }
    )


def part_size_price_kendall(sf_dir: str, num_partitions: int = 8):
    """KENDALL tau-b between part size and retail price — the
    concordance statistic, exact via the JOINT CONTINGENCY GRID instead
    of the O(n^2) pair scan: one (x, y) groupby reduces the data to
    cell counts (bounded by the two value domains, independent of rows),
    and concordant/discordant pair totals come from 2-D prefix sums over
    the dense grid — C = sum_cell n_cell * lower_left(cell), D =
    sum_cell n_cell * lower_right(cell), each unordered pair counted
    once.  Tie terms n1/n2 come from the marginals.  Everything is a
    Python-int-exact count; ONE mirrored float tree at the end.  The
    oracle verifies against the literal O(n^2) self-join, so the grid
    identity itself is what the hash compare proves."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import collect_arrow

    part = _read(sf_dir, "part", ["p_size", "p_retailprice"])

    def to_ints(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "x": b.column("p_size").cast(pa.int64()),
                "y": pc.cast(
                    pc.round(pc.multiply(b.column("p_retailprice"), pa.scalar(100.0))),
                    pa.int64(),
                ),
            }
        )

    cells_t = collect_arrow(
        part.map_batches(to_ints, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["x", "y"], num_partitions=num_partitions)
        .aggregate(Count(alias_name="cnt"))
    )
    x = np.asarray(cells_t.column("x"), dtype=np.int64)
    y = np.asarray(cells_t.column("y"), dtype=np.int64)
    cnt = np.asarray(cells_t.column("cnt"), dtype=np.int64)
    ux, xi = np.unique(x, return_inverse=True)
    uy, yi = np.unique(y, return_inverse=True)
    grid = np.zeros((len(ux), len(uy)), dtype=np.int64)
    grid[xi, yi] = cnt
    # inclusive 2-D prefix sums; strictly-lower regions via offset slices
    ps = grid.cumsum(axis=0).cumsum(axis=1)
    padded = np.zeros((len(ux) + 1, len(uy) + 1), dtype=np.int64)
    padded[1:, 1:] = ps
    lower_left = padded[:-1, :-1][xi, yi]  # counts with x' < x AND y' < y
    # x' < x AND y' > y  =  (all with x' < x)  -  (x' < x AND y' <= y)
    col_tot = grid.sum(axis=1).cumsum()
    rows_above = np.concatenate([[0], col_tot[:-1]])[xi]
    lower_right = rows_above - padded[:-1, 1:][xi, yi]
    C = int((cnt * lower_left).sum())
    D = int((cnt * lower_right).sum())
    n = int(cnt.sum())
    n0 = n * (n - 1) // 2
    tx = grid.sum(axis=1)
    ty = grid.sum(axis=0)
    n1 = int((tx * (tx - 1) // 2).sum())
    n2 = int((ty * (ty - 1) // 2).sum())
    den = np.sqrt(float(n0 - n1)) * np.sqrt(float(n0 - n2))
    tau = (float(C) - float(D)) / den if den > 0 else 0.0
    return pa.table(
        {
            "n": pa.array([n], pa.int64()),
            "concordant": pa.array([C], pa.int64()),
            "discordant": pa.array([D], pa.int64()),
            "kendall_tau": round4(np.array([tau])),
        }
    )


def orders_benford_digits(sf_dir: str, num_partitions: int = 8):
    """First-significant-digit distribution of order totals (the Benford
    data-quality probe for fabricated or truncated money columns).  The
    leading digit is extracted with pure integer math (vectorized
    repeated division — no float log10 near power-of-ten boundaries, no
    string conversion) over exact cents; one 9-row groupby ends the
    plan.  share divides the same exact ints on both sides."""
    from ray.data.aggregate import Sum

    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def digits(b: pa.Table) -> pa.Table:
        cents = np.asarray(
            pc.cast(
                pc.round(pc.multiply(b.column("o_totalprice"), pa.scalar(100.0))),
                pa.int64(),
            ),
            dtype=np.int64,
        )
        cents = cents[cents > 0]
        d = cents.copy()
        while (d >= 10).any():
            m = d >= 10
            d[m] //= 10
        out = np.zeros(9, dtype=np.int64)
        np.add.at(out, d - 1, 1)
        return pa.table(
            {
                "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
                "pn": pa.array(out, pa.int64()),
            }
        )

    agg = (
        orders.map_batches(digits, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("digit", num_partitions=num_partitions)
        .aggregate(Sum("pn", alias_name="n_orders"))
    )

    from dynaalign_ray.joins import collect_arrow

    t = collect_arrow(agg)  # 9 rows
    order = pc.sort_indices(t, sort_keys=[("digit", "ascending")])
    t = t.take(order)
    n = np.asarray(t.column("n_orders"), dtype=np.int64)
    total = int(n.sum())
    return pa.table(
        {
            "digit": t.column("digit"),
            "n_orders": t.column("n_orders").cast(pa.int64()),
            "share": round4(n.astype(np.float64) / float(total)),
        }
    )


def orders_lineitem_integrity(sf_dir: str, num_partitions: int = 8):
    """Referential-integrity audit between the fact pair (the FK health
    check every warehouse runs): how many orders have no lineitems, how
    many distinct lineitem orderkeys have no order, and how many match.
    Plan: both sides reduce to distinct keys tagged with a side flag
    (lineitem pre-distincts per block before the shuffle), ONE union +
    groupby-key classifies every key as left-only / right-only / both,
    and each block emits one partial-counts row — a full-outer join
    collapsed to set algebra, no row ever wider than (key, flag)."""
    from ray.data.aggregate import Max

    from dynaalign_ray.joins import collect_arrow

    orders = _read(sf_dir, "orders", ["o_orderkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def o_tag(b: pa.Table) -> pa.Table:
        k = b.column("o_orderkey").cast(pa.int64())
        n = len(k)
        return pa.table(
            {
                "key": k,
                "has_order": pa.array(np.ones(n, dtype=np.int64)),
                "has_item": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    def l_tag(b: pa.Table) -> pa.Table:
        u = pc.unique(b.column("l_orderkey").cast(pa.int64()))  # block pre-distinct
        n = len(u)
        return pa.table(
            {
                "key": u,
                "has_order": pa.array(np.zeros(n, dtype=np.int64)),
                "has_item": pa.array(np.ones(n, dtype=np.int64)),
            }
        )

    tagged = orders.map_batches(o_tag, batch_format="pyarrow", zero_copy_batch=True).union(
        li.map_batches(l_tag, batch_format="pyarrow", zero_copy_batch=True)
    )
    classified = tagged.groupby("key", num_partitions=num_partitions).aggregate(
        Max("has_order", alias_name="o"), Max("has_item", alias_name="i")
    )

    def partial(b: pa.Table) -> pa.Table:
        o = np.asarray(b.column("o"), dtype=np.int64)
        i = np.asarray(b.column("i"), dtype=np.int64)
        return pa.table(
            {
                "orders_without_items": pa.array(
                    [int(((o == 1) & (i == 0)).sum())], pa.int64()
                ),
                "orphan_item_keys": pa.array(
                    [int(((o == 0) & (i == 1)).sum())], pa.int64()
                ),
                "matched_keys": pa.array(
                    [int(((o == 1) & (i == 1)).sum())], pa.int64()
                ),
            }
        )

    t = collect_arrow(
        classified.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    return pa.table(
        {
            c: pa.array([int(np.asarray(t.column(c), dtype=np.int64).sum())], pa.int64())
            for c in ["orders_without_items", "orphan_item_keys", "matched_keys"]
        }
    )


def events_peak_5min(sf_dir: str, num_partitions: int = 8):
    """PEAK RATE detection: each user's maximum number of events inside
    any trailing 5-minute window (anchored at an event) — the burst/abuse
    signal.  One keyed repartition + per-block lexsort; the trailing
    count is a fully vectorized two-pointer (np.searchsorted of
    window-start times into the user's own run, segment-offset
    corrected), then one per-user max — all integers."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    win_us = 5 * 60 * 1_000_000

    def peak_block(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("user_id", pa.int64()), ("peak_5min", pa.int64())]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        t = pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": b.column("ts").cast(pa.int64()),
                "event_id": b.column("event_id"),
            }
        )
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("user_id", "ascending"),
                ("ts_us", "ascending"),
                ("event_id", "ascending"),
            ],
        )
        t = t.take(order)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        n = len(uid)
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(first) - 1
        # encode (segment, time) into one sorted key so ONE searchsorted
        # does every per-user window-start lookup.  Segments are packed
        # DENSELY: each segment's times are rebased to its own start and
        # shifted past the previous segment's span plus a (win_us + 1)
        # guard gap, so enc is monotone, windows never cross a segment
        # boundary, and the key stays bounded by sum(per-user spans) +
        # n_users * (win_us + 1) — no fixed 2^50 stride that would
        # silently overflow int64 past 8191 users per block.
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], n) - 1
        seg_min = ts[starts]
        span = ts[ends] - seg_min
        base = np.zeros(len(starts), dtype=np.int64)
        if len(starts) > 1:
            base[1:] = np.cumsum(span[:-1] + win_us + 1)
        if int(base[-1]) + int(span[-1]) >= (1 << 62):
            raise ValueError(
                "events_peak_5min: packed window key would exceed 2^62 "
                f"(sum of per-user spans across {len(starts)} users); "
                "raise num_partitions so fewer users land in one block"
            )
        enc = base[seg] + (ts - seg_min[seg])
        lo = np.searchsorted(enc, enc - win_us, side="left")
        # RANGE ... AND CURRENT ROW includes ALL peers of the current ts
        # (rows tied on the order key count even past the row position)
        hi = np.searchsorted(enc, enc, side="right")
        counts = hi - lo
        peaks = np.zeros(int(seg[-1]) + 1, dtype=np.int64)
        np.maximum.at(peaks, seg, counts)
        return pa.table(
            {
                "user_id": pa.array(uid[first], pa.int64()),
                "peak_5min": pa.array(peaks, pa.int64()),
            }
        )

    return ev.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        peak_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def lang_source_chi_cells(sf_dir: str, num_partitions: int = 8):
    """Chi-square INDEPENDENCE AUDIT of the (lang, source) contingency
    table, reported per cell (observed, expected, contribution) — the
    skew detector for stratified corpora.  Everything derives from one
    (lang, source) groupby-count plus its two marginals: observed counts
    and marginals are exact ints, and each cell's expected/chi values are
    SINGLE per-cell float trees (no cross-cell float sum anywhere, which
    is what keeps the compare bit-exact; the global statistic is the
    oracle-side sum of the published column if a user wants it)."""
    from ray.data.aggregate import Count

    from dynaalign_ray.joins import collect_arrow

    docs = _read(sf_dir, "documents", ["lang", "source"])
    cells_t = collect_arrow(
        docs.groupby(["lang", "source"], num_partitions=num_partitions).aggregate(
            Count(alias_name="observed")
        )
    )  # cell-grain: |langs| x |sources| rows
    lang = cells_t.column("lang").to_pylist()
    src = cells_t.column("source").to_pylist()
    obs = np.asarray(cells_t.column("observed"), dtype=np.int64)
    n = int(obs.sum())
    row_tot: dict[str, int] = {}
    col_tot: dict[str, int] = {}
    for l, s, o in zip(lang, src, obs.tolist()):
        row_tot[l] = row_tot.get(l, 0) + o
        col_tot[s] = col_tot.get(s, 0) + o
    r = np.array([row_tot[l] for l in lang], dtype=np.int64)
    c = np.array([col_tot[s] for s in src], dtype=np.int64)
    expected = (r.astype(np.float64) * c.astype(np.float64)) / float(n)
    diff = obs.astype(np.float64) - expected
    chi = (diff * diff) / expected
    return pa.table(
        {
            "lang": pa.array(lang, pa.string()),
            "source": pa.array(src, pa.string()),
            "observed": pa.array(obs, pa.int64()),
            "expected": round4(expected),
            "chi2_cell": round4(chi),
        }
    )


def events_longest_streak(sf_dir: str, num_partitions: int = 8):
    """Longest same-type RUN per user (gaps-and-islands): the max number
    of consecutive events of one type in each user's (ts, event_id)
    order, with the type that achieved it (ties by type ASC).  One keyed
    repartition + one lexsort; runs fall out of a vectorized
    boundary/segment pass — the classic islands query without the
    row_number-difference trick because rows are co-located."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def streak_block(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                ("user_id", pa.int64()),
                ("streak", pa.int64()),
                ("streak_type", pa.string()),
            ]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        t = pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": b.column("ts").cast(pa.int64()),
                "event_id": b.column("event_id"),
                "event_type": b.column("event_type"),
            }
        )
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("user_id", "ascending"),
                ("ts_us", "ascending"),
                ("event_id", "ascending"),
            ],
        )
        t = t.take(order)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        types = t.column("event_type").combine_chunks()
        if isinstance(types, pa.ChunkedArray):
            types = types.chunk(0)
        codes = np.asarray(types.dictionary_encode().indices, dtype=np.int64)
        n = len(uid)
        run_start = np.empty(n, dtype=bool)
        run_start[0] = True
        run_start[1:] = (uid[1:] != uid[:-1]) | (codes[1:] != codes[:-1])
        run_id = np.cumsum(run_start) - 1
        run_len = np.bincount(run_id)
        run_user = uid[run_start]
        run_code = codes[run_start]
        tdict = types.dictionary_encode().dictionary.to_pylist()
        run_type = [tdict[i] for i in run_code.tolist()]
        # per-user argmax over runs: (len DESC, type ASC)
        best: dict[int, tuple[int, str]] = {}
        for u, ln, ty in zip(run_user.tolist(), run_len.tolist(), run_type):
            cur = best.get(u)
            if cur is None or ln > cur[0] or (ln == cur[0] and ty < cur[1]):
                best[u] = (ln, ty)
        users = sorted(best)
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "streak": pa.array([best[u][0] for u in users], pa.int64()),
                "streak_type": pa.array([best[u][1] for u in users], pa.string()),
            }
        )

    return ev.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        streak_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def lineitem_weighted_median_price(sf_dir: str, num_partitions: int = 8):
    """QUANTITY-WEIGHTED lower median of extended price per returnflag —
    the robust "typical price of a shipped unit" statistic.  Exact
    without any global sort: one (flag, price-cents) groupby sums integer
    quantity weights (the shuffle is bounded by the PRICE DOMAIN per
    flag, not rows), the driver cumsums each flag's histogram in price
    order, and the lower weighted median is the first price whose doubled
    cumulative weight reaches the total — all integer comparisons,
    mirrored by the oracle's window-cumsum FILTER form."""
    from ray.data.aggregate import Sum

    from dynaalign_ray.joins import collect_arrow

    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice", "l_quantity"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "cents": pc.cast(
                    pc.round(pc.multiply(b.column("l_extendedprice"), pa.scalar(100.0))),
                    pa.int64(),
                ),
                "qty": b.column("l_quantity").cast(pa.int64()),
            }
        )

    hist = collect_arrow(
        li.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "cents"], num_partitions=num_partitions)
        .aggregate(Sum("qty", alias_name="w"))
    )  # (flag, distinct price) grain — domain-bounded
    flags = hist.column("l_returnflag").to_pylist()
    cents = np.asarray(hist.column("cents"), dtype=np.int64)
    w = np.asarray(hist.column("w"), dtype=np.int64)
    out_f: list[str] = []
    out_m: list[float] = []
    out_w: list[int] = []
    for f in sorted(set(flags)):
        m = np.array([x == f for x in flags])
        c_f, w_f = cents[m], w[m]
        o = np.argsort(c_f)
        c_f, w_f = c_f[o], w_f[o]
        cw = np.cumsum(w_f)
        total = int(cw[-1])
        idx = int(np.searchsorted(2 * cw, total))
        out_f.append(f)
        out_m.append(int(c_f[idx]) / 100.0)
        out_w.append(total)
    return pa.table(
        {
            "l_returnflag": pa.array(out_f, pa.string()),
            "weighted_median_price": round4(np.array(out_m)),
            "total_qty": pa.array(out_w, pa.int64()),
        }
    )


def events_active_time(sf_dir: str, window_s: int = 60, num_partitions: int = 8):
    """Per-user ACTIVE TIME: the total length of the union of
    [ts, ts + window] intervals around each event — the engagement-time
    metric that double-counts nothing when events overlap.  For
    fixed-length intervals the union telescopes: every event contributes
    min(window, gap_to_next) and the last contributes window, so one
    keyed repartition + one lexsort + one vectorized LEAD pass computes
    it exactly in integer microseconds."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    win_us = window_s * 1_000_000

    def active_block(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                ("user_id", pa.int64()),
                ("active_seconds", pa.float64()),
                ("n_events", pa.int64()),
            ]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        t = pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": b.column("ts").cast(pa.int64()),
                "event_id": b.column("event_id"),
            }
        )
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("user_id", "ascending"),
                ("ts_us", "ascending"),
                ("event_id", "ascending"),
            ],
        )
        t = t.take(order)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        n = len(uid)
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = uid[1:] != uid[:-1]
        contrib = np.full(n, win_us, dtype=np.int64)
        gap = np.empty(n, dtype=np.int64)
        gap[:-1] = ts[1:] - ts[:-1]
        contrib[~last] = np.minimum(win_us, gap[~last])
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = uid[1:] != uid[:-1]
        seg = np.cumsum(first) - 1
        tot = np.zeros(int(seg[-1]) + 1, dtype=np.int64)
        np.add.at(tot, seg, contrib)
        cnt = np.bincount(seg).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid[first], pa.int64()),
                # same exact int -> double division on both sides
                "active_seconds": round4(tot.astype(np.float64) / 1e6),
                "n_events": pa.array(cnt, pa.int64()),
            }
        )

    return ev.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        active_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def events_timed_conversion(sf_dir: str, window_s: int = 3600, num_partitions: int = 8):
    """TIMED conversion: of the users whose first 'signup' precedes their
    first 'purchase', how many converted within the window — the
    time-to-convert funnel constraint.  One filtered groupby reduces
    events to per-user first-touch timestamps (conditional Min over the
    two types), block partials fold to four driver scalars."""
    from ray.data.aggregate import Min

    from dynaalign_ray.joins import collect_arrow

    ev = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    BIG = np.int64(2**62)

    def prep(b: pa.Table) -> pa.Table:
        ts = np.asarray(b.column("ts").cast(pa.int64()), dtype=np.int64)
        et = b.column("event_type").to_pylist()
        is_s = np.array([t == "signup" for t in et])
        is_p = np.array([t == "purchase" for t in et])
        keep = is_s | is_p
        return pa.table(
            {
                "user_id": b.column("user_id").filter(pa.array(keep)),
                "s_ts": pa.array(np.where(is_s, ts, BIG)[keep], pa.int64()),
                "p_ts": pa.array(np.where(is_p, ts, BIG)[keep], pa.int64()),
            }
        )

    per_user = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id", num_partitions=num_partitions)
        .aggregate(Min("s_ts", alias_name="s"), Min("p_ts", alias_name="p"))
    )
    win_us = window_s * 1_000_000

    def partial(b: pa.Table) -> pa.Table:
        s = np.asarray(b.column("s"), dtype=np.int64)
        p = np.asarray(b.column("p"), dtype=np.int64)
        has_s = s < BIG
        has_p = p < BIG
        ordered = has_s & has_p & (s <= p)
        timed = ordered & (p - s <= win_us)
        return pa.table(
            {
                "n_signup": pa.array([int(has_s.sum())], pa.int64()),
                "n_ordered_pairs": pa.array([int(ordered.sum())], pa.int64()),
                "n_converted_in_window": pa.array([int(timed.sum())], pa.int64()),
            }
        )

    t = collect_arrow(
        per_user.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    return pa.table(
        {
            c: pa.array([int(np.asarray(t.column(c), dtype=np.int64).sum())], pa.int64())
            for c in ["n_signup", "n_ordered_pairs", "n_converted_in_window"]
        }
    )


def events_bounce_rate(sf_dir: str, gap_s: int = 1800, num_partitions: int = 8):
    """SESSIONIZED bounce rate per user: sessions split at inactivity
    gaps > ``gap_s``; a bounce is a single-event session.  One keyed
    repartition + lexsort; session boundaries are one vectorized gap
    compare and bounces fall out of the session-length bincount.  The
    rate divides exact ints."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap_us = gap_s * 1_000_000

    def sess_block(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                ("user_id", pa.int64()),
                ("n_sessions", pa.int64()),
                ("n_bounces", pa.int64()),
                ("bounce_rate", pa.float64()),
            ]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        t = pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": b.column("ts").cast(pa.int64()),
                "event_id": b.column("event_id"),
            }
        )
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("user_id", "ascending"),
                ("ts_us", "ascending"),
                ("event_id", "ascending"),
            ],
        )
        t = t.take(order)
        uid = np.asarray(t.column("user_id"), dtype=np.int64)
        ts = np.asarray(t.column("ts_us"), dtype=np.int64)
        n = len(uid)
        new_sess = np.empty(n, dtype=bool)
        new_sess[0] = True
        new_sess[1:] = (uid[1:] != uid[:-1]) | (ts[1:] - ts[:-1] > gap_us)
        sess_id = np.cumsum(new_sess) - 1
        sess_len = np.bincount(sess_id)
        sess_user = uid[new_sess]
        users, inv = np.unique(sess_user, return_inverse=True)
        n_sessions = np.bincount(inv).astype(np.int64)
        n_bounces = np.zeros(len(users), dtype=np.int64)
        np.add.at(n_bounces, inv, (sess_len == 1).astype(np.int64))
        from dynaalign_ray.pipelines.relational import round4

        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "n_sessions": pa.array(n_sessions, pa.int64()),
                "n_bounces": pa.array(n_bounces, pa.int64()),
                "bounce_rate": round4(
                    n_bounces.astype(np.float64) / n_sessions.astype(np.float64)
                ),
            }
        )

    return ev.repartition(num_blocks=num_partitions, keys=["user_id"]).map_batches(
        sess_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def orders_dow_revenue(sf_dir: str, num_partitions: int = 8):
    """Revenue seasonality by DAY OF WEEK, with the weekday derived by
    PURE INTEGER arithmetic mirrored in the oracle ((epoch_days + 3) % 7,
    0 = Monday) — no date_part dialect dependence anywhere.  One
    exact-cents groupby over a 7-row key."""
    from ray.data.aggregate import Count, Sum

    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])
    day_us = 86_400_000_000

    def prep(b: pa.Table) -> pa.Table:
        d = np.asarray(b.column("o_orderdate").cast(pa.int64()), dtype=np.int64)
        days = d // day_us
        dow = (days + 3) % 7  # 1970-01-01 was a Thursday; 0 = Monday
        cents = np.asarray(
            pc.cast(
                pc.round(pc.multiply(b.column("o_totalprice"), pa.scalar(100.0))),
                pa.int64(),
            ),
            dtype=np.int64,
        )
        return pa.table(
            {
                "dow": pa.array(dow, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    agg = (
        orders.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dow", num_partitions=num_partitions)
        .aggregate(Sum("cents", alias_name="rev_cents"), Count(alias_name="n_orders"))
    )

    def finish(b: pa.Table) -> pa.Table:
        cents = np.asarray(b.column("rev_cents"), dtype=np.float64)
        return pa.table(
            {
                "dow": b.column("dow"),
                "n_orders": b.column("n_orders").cast(pa.int64()),
                "revenue": round4(cents / 100.0),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def supplier_part_diversity(sf_dir: str, num_partitions: int = 8):
    """SIMPSON DIVERSITY of each supplier's part mix: the probability two
    random lineitems of a supplier name different parts,
    1 - sum n_i(n_i-1) / (N(N-1)) — the assortment-concentration audit.
    One (supplier, part) groupby bounds everything at distinct-pair
    grain; per-supplier sufficient sums are exact int64 (one keyed
    repartition); the index divides exact ints."""
    from ray.data.aggregate import Count

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])
    pairs = li.groupby(["l_suppkey", "l_partkey"], num_partitions=num_partitions).aggregate(
        Count(alias_name="n")
    )

    def per_supplier(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                ("l_suppkey", pa.int64()),
                ("n_items", pa.int64()),
                ("n_parts", pa.int64()),
                ("simpson", pa.float64()),
            ]
        ).empty_table()
        if b.num_rows == 0:
            return empty
        order = pc.sort_indices(b, sort_keys=[("l_suppkey", "ascending")])
        t = b.take(order)
        s = np.asarray(t.column("l_suppkey"), dtype=np.int64)
        n = np.asarray(t.column("n"), dtype=np.int64)
        first = np.empty(len(s), dtype=bool)
        first[0] = True
        first[1:] = s[1:] != s[:-1]
        seg = np.cumsum(first) - 1
        n_seg = int(seg[-1]) + 1
        tot = np.zeros(n_seg, dtype=np.int64)
        np.add.at(tot, seg, n)
        sq = np.zeros(n_seg, dtype=np.int64)
        np.add.at(sq, seg, n * (n - 1))
        parts = np.bincount(seg).astype(np.int64)
        keep = tot > 1
        simpson = 1.0 - sq[keep].astype(np.float64) / (
            tot[keep].astype(np.float64) * (tot[keep] - 1).astype(np.float64)
        )
        return pa.table(
            {
                "l_suppkey": pa.array(s[first][keep], pa.int64()),
                "n_items": pa.array(tot[keep], pa.int64()),
                "n_parts": pa.array(parts[keep], pa.int64()),
                "simpson": round4(simpson),
            }
        )

    return pairs.repartition(num_blocks=num_partitions, keys=["l_suppkey"]).map_batches(
        per_supplier, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )


def supplier_balance_zscore(sf_dir: str, num_partitions: int = 8):
    """Per-nation account-balance Z-SCORES (population std): the outlier
    screen for fat-finger balances.  Nation-level sufficient statistics
    (n, sum, sum-of-squares over exact cents) come from one tiny
    groupby; every supplier's z re-derives mean and std from the SAME
    exact ints in one mirrored float tree (std uses the
    sqrt((n*sxx - sx^2))/n population form; zero-variance nations emit
    z = 0)."""
    from ray.data.aggregate import Count, Sum

    from dynaalign_ray.joins import collect_arrow

    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey", "s_acctbal"])

    def prep(b: pa.Table) -> pa.Table:
        cents = np.asarray(
            pc.cast(
                pc.round(pc.multiply(b.column("s_acctbal"), pa.scalar(100.0))),
                pa.int64(),
            ),
            dtype=np.int64,
        )
        return pa.table(
            {
                "s_suppkey": b.column("s_suppkey"),
                "nk": b.column("s_nationkey").cast(pa.int64()),
                "cents": pa.array(cents, pa.int64()),
                "sq": pa.array(cents * cents, pa.int64()),
            }
        )

    ints = sup.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True).materialize()
    stats_t = collect_arrow(
        ints.groupby("nk", num_partitions=num_partitions).aggregate(
            Count(alias_name="n"),
            Sum("cents", alias_name="sx"),
            Sum("sq", alias_name="sxx"),
        )
    )  # nation-grain
    nk = np.asarray(stats_t.column("nk"), dtype=np.int64)
    n = np.asarray(stats_t.column("n"), dtype=np.int64)
    sx = np.asarray(stats_t.column("sx"), dtype=np.int64)
    sxx = np.asarray(stats_t.column("sxx"), dtype=np.int64)
    stat_map = {int(k): (int(a), int(b_), int(c_)) for k, a, b_, c_ in zip(nk, n, sx, sxx)}

    def z_block(b: pa.Table) -> pa.Table:
        k = np.asarray(b.column("nk"), dtype=np.int64)
        cents = np.asarray(b.column("cents"), dtype=np.int64)
        nn = np.array([stat_map[int(x)][0] for x in k], dtype=np.float64)
        sxv = np.array([stat_map[int(x)][1] for x in k], dtype=np.float64)
        sxxv = np.array([stat_map[int(x)][2] for x in k], dtype=np.float64)
        mean = sxv / nn
        var_num = nn * sxxv - sxv * sxv
        std = np.sqrt(np.maximum(var_num, 0.0)) / nn
        z = np.where(std > 0.0, (cents.astype(np.float64) - mean) / np.where(std > 0.0, std, 1.0), 0.0)
        from dynaalign_ray.pipelines.relational import round4

        return pa.table(
            {
                "s_suppkey": b.column("s_suppkey"),
                "nk": b.column("nk"),
                "zscore": round4(z),
            }
        )

    out = ints.map_batches(z_block, batch_format="pyarrow", zero_copy_batch=True)
    return out.select_columns(["s_suppkey", "nk", "zscore"])


def orders_gap_histogram(sf_dir: str, num_partitions: int = 8):
    """Histogram of per-customer INTER-ORDER gaps in whole days — the
    reorder-cadence profile.  One keyed repartition + lexsort gives each
    customer's consecutive order gaps vectorized; floor division to days
    and one narrow groupby count end it.  All integers."""
    from ray.data.aggregate import Count

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey"])
    day_us = 86_400_000_000

    def gaps_block(b: pa.Table) -> pa.Table:
        empty = pa.schema([("gap_days", pa.int64())]).empty_table()
        if b.num_rows == 0:
            return empty
        t = pa.table(
            {
                "ck": b.column("o_custkey"),
                "d": b.column("o_orderdate").cast(pa.int64()),
                "ok": b.column("o_orderkey"),
            }
        )
        order = pc.sort_indices(
            t,
            sort_keys=[
                ("ck", "ascending"),
                ("d", "ascending"),
                ("ok", "ascending"),
            ],
        )
        t = t.take(order)
        ck = np.asarray(t.column("ck"), dtype=np.int64)
        d = np.asarray(t.column("d"), dtype=np.int64)
        if len(ck) < 2:
            return empty
        same = ck[1:] == ck[:-1]
        gaps = (d[1:] - d[:-1])[same] // day_us
        return pa.table({"gap_days": pa.array(gaps, pa.int64())})

    return (
        orders.repartition(num_blocks=num_partitions, keys=["o_custkey"])
        .map_batches(
            gaps_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("gap_days", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_gaps"))
    )


def events_hour_of_day(sf_dir: str, num_partitions: int = 8):
    """Activity profile by HOUR OF DAY (0-23), with the hour derived by
    pure integer arithmetic mirrored in the oracle ((epoch_us //
    3600e6) % 24 — dialect-free, floor-safe).  One exact-cents groupby
    over a 24-row key; the mean derives from the rounded sum per the
    engine-wide derived_avg rule."""
    from ray.data.aggregate import Count, Sum

    ev = _read(sf_dir, "events", ["ts", "value"])
    hour_us = 3_600_000_000

    def prep(b: pa.Table) -> pa.Table:
        ts = np.asarray(b.column("ts").cast(pa.int64()), dtype=np.int64)
        cents = np.asarray(
            pc.cast(
                pc.round(pc.multiply(b.column("value"), pa.scalar(100.0))), pa.int64()
            ),
            dtype=np.int64,
        )
        return pa.table(
            {
                "hour": pa.array((ts // hour_us) % 24, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    agg = (
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hour", num_partitions=num_partitions)
        .aggregate(Count(alias_name="n_events"), Sum("cents", alias_name="sum_cents"))
    )

    def finish(b: pa.Table) -> pa.Table:
        cents = np.asarray(b.column("sum_cents"), dtype=np.float64)
        n = np.asarray(b.column("n_events"), dtype=np.float64)
        total = round4(cents / 100.0)
        return pa.table(
            {
                "hour": b.column("hour"),
                "n_events": b.column("n_events").cast(pa.int64()),
                "total_value": total,
                # derived-avg rule: divide the ROUNDED sum (bit-identical
                # on both sides) by the exact count
                "avg_value": round4(np.asarray(total, dtype=np.float64) / n),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
