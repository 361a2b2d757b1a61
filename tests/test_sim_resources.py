"""Unit tests for Store."""

from repro.sim import Simulator, Store


# --- Store -------------------------------------------------------------------


def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert [i for i, _ in got] == [0, 1, 2]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    times = []

    def producer():
        for i in range(3):
            yield store.put(i)
            times.append(sim.now)

    def consumer():
        for _ in range(3):
            yield sim.timeout(2.0)
            yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    # put#0 immediate; put#1 after first get at t=2; put#2 after t=4
    assert times == [0.0, 2.0, 4.0]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(5.0)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("x", 5.0)]


def test_store_predicate_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def run():
        yield store.put("a")
        yield store.put("b")
        item = yield store.get(predicate=lambda x: x == "b")
        got.append(item)
        item = yield store.get()
        got.append(item)

    sim.process(run())
    sim.run()
    assert got == ["b", "a"]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None

    def run():
        yield store.put(1)

    sim.process(run())
    sim.run()
    assert store.try_get() == 1
    assert store.try_get() is None


def test_store_len():
    sim = Simulator()
    store = Store(sim)

    def run():
        yield store.put(1)
        yield store.put(2)

    sim.process(run())
    sim.run()
    assert len(store) == 2
