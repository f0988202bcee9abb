"""A LAST JOIN's ``ORDER BY`` picks which row is "last".

``dim`` carries two indexes on the same key, ordered by different
columns; the row with the largest ``b`` is not the row with the largest
``a``.  Joining ``ORDER BY dim.b`` must answer the row newest by ``b``
on every path: the single node online and offline, a routed cluster,
and the baselines (which sort by the column themselves).
"""

import pytest

from repro import OpenMLDB
from repro.baselines import DuckDBEngine, MySQLMemoryEngine, TrinoRedisEngine
from repro.cluster import NameServer, TabletServer
from repro.errors import PlanError
from repro.schema import IndexDef, Schema

T = Schema.from_pairs([("k", "string"), ("ts", "timestamp")])
DIM = Schema.from_pairs([("k", "string"), ("a", "bigint"), ("b", "bigint"),
                         ("v", "int")])
DIM_INDEXES = [IndexDef(("k",), "a"), IndexDef(("k",), "b")]
DIM_ROWS = [("x", 100, 900, 1), ("x", 200, 100, 2)]
REQUEST = ("x", 1_000)


def join_sql(column):
    return (f"SELECT t.k, dim.v FROM t LAST JOIN dim ORDER BY dim.{column} "
            "ON t.k = dim.k")


@pytest.fixture
def db():
    db = OpenMLDB()
    db.create_table("t", T, indexes=[IndexDef(("k",), "ts")])
    db.create_table("dim", DIM, indexes=DIM_INDEXES)
    db.insert_many("dim", DIM_ROWS)
    db.insert("t", REQUEST)
    yield db
    db.close()


@pytest.mark.parametrize("column, v", [("b", 1), ("a", 2)])
def test_online_and_offline_join_the_row_last_by_order_by(db, column, v):
    sql = join_sql(column)
    assert f"index=idx_k_{column} " in db.explain(sql)
    db.deploy("j", sql)
    assert db.request("j", REQUEST) == {"k": "x", "v": v}
    rows, _stats = db.offline_query(sql)
    assert rows == [("x", v)]


def test_a_routed_cluster_joins_the_row_last_by_order_by():
    cluster = NameServer([TabletServer(f"tablet-{i}") for i in range(2)])
    cluster.create_table("t", T, [IndexDef(("k",), "ts")], partitions=2)
    cluster.create_table("dim", DIM, DIM_INDEXES, partitions=2)
    for row in DIM_ROWS:
        cluster.put("dim", row)
    cluster.deploy("j", join_sql("b"))
    assert cluster.request("j", REQUEST) == {"k": "x", "v": 1}
    cluster.close()


@pytest.mark.parametrize("engine_cls", [MySQLMemoryEngine, DuckDBEngine,
                                        TrinoRedisEngine],
                         ids=lambda cls: cls.name)
def test_the_baselines_agree(engine_cls):
    engine = engine_cls(join_sql("b"), {"t": T, "dim": DIM})
    engine.load("t", [REQUEST])
    engine.load("dim", DIM_ROWS)
    assert tuple(engine.request(REQUEST)) == ("x", 1)


def test_an_unindexed_order_by_is_rejected_at_deploy(db):
    sql = join_sql("v")
    assert "index=none " in db.explain(sql)
    with pytest.raises(PlanError, match="last join dim"):
        db.deploy("j", sql)
