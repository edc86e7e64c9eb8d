import random
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given

import proggen
from cmod import ast as A
from cmod.cli import _repl_entry
from cmod.engine import Failure, Success, eval_expr, execute, run_source
from cmod.errors import (
    REGION_FAULT,
    TYPE_MISMATCH,
    UNBOUND_VARIABLE,
    EngineFailure,
)
from cmod.machine import Machine
from cmod.parser import parse_source
from cmod.regions import (
    MAX_REGION_LENGTH,
    RegionStack,
    region_read,
    region_write,
)


def test_store_assign_and_read():
    outcome, machine = run_source("Age = 31; print(Age); Age = 40")
    assert isinstance(outcome, Success)
    assert machine.output_text() == "31\n"
    assert machine.store == {"Age": A.Int(40)}


def test_store_disjoint_assign():
    machine = Machine()
    machine.store["y"] = A.Int(1)
    assert isinstance(execute(machine, A.Assign("x", A.Int(2))), Success)
    assert machine.store == {"y": A.Int(1), "x": A.Int(2)}


def test_store_unbound_read():
    outcome, machine = run_source("y = X")
    assert isinstance(outcome, Failure) and outcome.reason == UNBOUND_VARIABLE
    assert machine.store == {}


@given(
    st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(-9, 9).map(A.Int), max_size=3),
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(-99, 99).map(A.Int),
)
def test_store_read_after_assign(bindings, name, value):
    machine = Machine()
    machine.store.update(bindings)
    assert isinstance(execute(machine, A.Assign(name, value)), Success)
    assert eval_expr(machine, A.Var(name)) == value


def test_fresh_region_is_zero_initialized():
    machine = Machine()
    handle = machine.regions.allocate("int", 3)
    assert region_read(machine, handle, 0) == A.Int(0)
    assert region_read(machine, handle, 2) == A.Int(0)


def test_read_at_length_is_a_bounds_fault():
    machine = Machine()
    handle = machine.regions.allocate("int", 2)
    with pytest.raises(EngineFailure) as info:
        region_read(machine, handle, 2)
    assert info.value.reason == REGION_FAULT and "bounds" in info.value.detail


def test_write_negative_index_is_a_bounds_fault():
    machine = Machine()
    handle = machine.regions.allocate("int", 2)
    with pytest.raises(EngineFailure) as info:
        region_write(machine, handle, -1, A.Int(5))
    assert info.value.reason == REGION_FAULT and "bounds" in info.value.detail


def test_write_then_read_same_index():
    machine = Machine()
    handle = machine.regions.allocate("int", 4)
    region_write(machine, handle, 3, A.Int(9))
    assert region_read(machine, handle, 3) == A.Int(9)


def test_element_type_is_enforced():
    machine = Machine()
    handle = machine.regions.allocate("int", 1)
    with pytest.raises(EngineFailure) as info:
        region_write(machine, handle, 0, A.Bool(True))
    assert info.value.reason == TYPE_MISMATCH


def test_nested_scopes_see_both_regions(corpus_files):
    path = [p for p in corpus_files if p.name == "regions_nested.cmod"][0]
    outcome, machine = run_source(path.read_text(encoding="utf-8"))
    assert isinstance(outcome, Success)
    assert machine.output_text() == "33\n12\n"
    assert machine.regions.regions == {}
    assert machine.store["sum"] == A.Int(33)


def test_empty_region_allocates():
    outcome, machine = run_source("(p = new int[0] => x = p[0])")
    assert isinstance(outcome, Failure) and outcome.reason == REGION_FAULT
    assert outcome.detail == "bounds: index 0 outside region 0 of length 0"
    assert machine.regions.allocated == 1 and machine.regions.regions == {}


def test_escaped_handle_faults_after_scope_exit():
    outcome, machine = run_source("(p = new int[4] => q = p); x = q[0]")
    assert isinstance(outcome, Failure)
    assert outcome.reason == REGION_FAULT and "dangling" in outcome.detail
    assert machine.store["q"] == A.Handle(0)  # the dead handle value survives


def test_handle_binding_removed_at_scope_exit():
    outcome, machine = run_source("(p = new int[4] => q = p); x = p")
    assert isinstance(outcome, Success)
    # p itself was unbound again, so it evaluated as an atom
    assert machine.store["x"] == A.Atom("p")
    assert "p" not in machine.store


@pytest.mark.parametrize("name", ["P", "p"])
def test_scope_exit_puts_back_the_variable_the_handle_shadowed(name):
    outcome, machine = run_source(f"{name} = 5; ({name} = new int[3] => print({name}[0])); print({name})")
    assert isinstance(outcome, Success)
    assert machine.output_text() == "0\n5\n"
    assert machine.store == {name: A.Int(5)}


def test_a_failing_body_still_puts_back_the_shadowed_variable():
    outcome, machine = run_source("p = 5; (p = new int[3] => nope()); print(p)")
    assert isinstance(outcome, Failure) and outcome.detail == "nope/0"
    assert machine.regions.regions == {}
    assert machine.store == {"p": A.Int(5)}


def test_a_called_procedure_cannot_assign_a_live_handle():
    outcome, machine = run_source(
        "p = 5; (q() = (p = 7) => (p = new int[3] => (q(); print(p); print(p[0])))); print(p)"
    )
    assert isinstance(outcome, Failure) and outcome.reason == REGION_FAULT
    assert outcome.detail == "no assignment to 'p' (region handles are read-only in their scope)"
    assert [site.render() for site in outcome.call_chain] == ["q()"]
    assert machine.output_text() == "" and machine.store == {"p": A.Int(5)}


@pytest.mark.parametrize("source, output", [
    # after the scope the name is assignable again
    ("(q() = (p = 7) => ((p = new int[3] => true); q(); print(p)))", "7\n"),
    # an inner scope of the same name ends, the outer one still holds it
    ("(r() = (p = new int[1] => true) and q() = (p = 7) => (p = new int[3] => (r(); q())))", None),
])
def test_a_handle_is_read_only_exactly_while_a_scope_of_its_name_is_live(source, output):
    outcome, machine = run_source(source)
    if output is None:
        assert isinstance(outcome, Failure) and outcome.reason == REGION_FAULT
    else:
        assert isinstance(outcome, Success) and machine.output_text() == output
    assert machine.handles.get("p", 0) == 0


def test_scope_pops_even_when_the_body_fails():
    machine = Machine()
    body = A.Call("nope", ())
    outcome = execute(machine, A.AllocScope("p", "int", A.Int(2), body))
    assert isinstance(outcome, Failure)
    assert outcome.reason == "no-matching-clause"
    assert machine.regions.regions == {}
    assert "p" not in machine.store


def test_negative_length_is_a_region_fault():
    outcome, _ = run_source("(p = new int[0 - 1] => true)")
    assert isinstance(outcome, Failure) and outcome.reason == REGION_FAULT


def test_non_integer_length_is_a_region_fault():
    outcome, _ = run_source("(p = new int[true] => true)")
    assert isinstance(outcome, Failure) and outcome.reason == REGION_FAULT


def test_length_above_the_cap_is_a_region_fault_and_allocates_nothing():
    outcome, machine = run_source(f"(p = new int[{MAX_REGION_LENGTH + 1}] => print(1))")
    assert isinstance(outcome, Failure) and outcome.reason == REGION_FAULT
    assert str(MAX_REGION_LENGTH) in outcome.detail
    assert machine.regions.allocated == 0 and machine.output_text() == ""


def test_a_region_of_exactly_the_limit_is_allocated(monkeypatch):
    monkeypatch.setattr("cmod.engine.MAX_REGION_LENGTH", 8)
    outcome, machine = run_source("(p = new int[8] => (p[7] = 5; print(p[7])))")
    assert isinstance(outcome, Success) and machine.output_text() == "5\n"
    outcome, machine = run_source("(p = new int[9] => print(1))")
    assert isinstance(outcome, Failure) and outcome.reason == REGION_FAULT
    assert outcome.detail == "region length 9 exceeds the limit of 8"
    assert machine.regions.allocated == 0


def test_unknown_region_id_is_a_region_fault():
    stack = RegionStack()
    stack.allocate("int", 1)
    for region_id in (1, 7, -1):
        with pytest.raises(EngineFailure) as info:
            stack.checked(A.Handle(region_id))
        assert info.value.reason == REGION_FAULT
        assert info.value.detail == f"unknown region {region_id}"


def test_free_follows_the_live_stack_across_reuse_of_the_top():
    # alloc A, alloc B, free B, alloc C, free C, free A
    stack = RegionStack()
    events = proggen.record_region_events(stack)
    a = stack.allocate("int", 1)
    b = stack.allocate("int", 2)
    stack.free(b)
    c = stack.allocate("int", 3)
    assert [(serial, len(cells)) for serial, cells in stack.regions.items()] == [(0, 1), (2, 3)]
    stack.free(c)
    stack.free(a)
    assert stack.regions == {} and stack.allocated == 3
    assert events == [
        ("alloc", 0), ("alloc", 1), ("free", 1), ("alloc", 2), ("free", 2), ("free", 0),
    ]
    with pytest.raises(EngineFailure):
        stack.checked(b)


def test_free_out_of_order_is_a_hard_error():
    stack = RegionStack()
    first = stack.allocate("int", 1)
    second = stack.allocate("int", 1)
    with pytest.raises(RuntimeError):
        stack.free(first)
    stack.free(second)
    stack.allocate("int", 1)
    with pytest.raises(RuntimeError):
        stack.free(second)  # already freed


def test_lifo_event_log():
    machine = Machine()
    events = proggen.record_region_events(machine.regions)
    source = "(a = new int[1] => ((b = new int[2] => true); (c = new int[3] => true)))"
    outcome = execute(machine, parse_source(source).main)
    assert isinstance(outcome, Success)
    assert len(events) == 6
    proggen.assert_lifo(events)


def test_assign_never_touches_regions_and_writes_never_touch_the_store():
    machine = Machine()
    handle = machine.regions.allocate("int", 2)
    execute(machine, A.Assign("x", A.Int(1)))
    cells_before = list(machine.regions.regions[0])
    execute(machine, A.Assign("x", A.Int(2)))
    assert machine.regions.regions[0] == cells_before
    store_before = dict(machine.store)
    region_write(machine, handle, 0, A.Int(7))
    assert dict(machine.store) == store_before


def test_interleaved_writes_against_flat_map_oracle():
    rng = random.Random(7)
    machine = Machine()
    handles = [machine.regions.allocate("int", 5), machine.regions.allocate("int", 5)]
    model: dict[tuple[int, int], A.Int] = {}
    for _ in range(200):
        which = rng.randrange(2)
        index = rng.randrange(5)
        if rng.random() < 0.5:
            value = A.Int(rng.randint(-50, 50))
            region_write(machine, handles[which], index, value)
            model[(which, index)] = value
        else:
            expected = model.get((which, index), A.Int(0))
            assert region_read(machine, handles[which], index) == expected


def test_scope_exit_restores_region_count_at_every_level():
    source = "(a = new int[1] => ((b = new int[2] => b[0] = 1); a[0] = 2))"
    machine = Machine()
    stack, free, counts = machine.regions, machine.regions.free, []

    def counting_free(handle):
        counts.append(len(stack.regions))
        free(handle)
        counts.append(len(stack.regions))

    stack.free = counting_free
    assert isinstance(execute(machine, parse_source(source).main), Success)
    assert counts == [2, 1, 1, 0]
    assert stack.regions == {} and stack.allocated == 2


def test_handles_pass_through_procedure_parameters():
    # a handle given as an argument can be written and read through
    source = (
        "(fill(h, v) = (h[0] = v; seen = h[0])"
        " => (buf = new int[2] => fill(buf, 9)))"
    )
    outcome, machine = run_source(source)
    assert isinstance(outcome, Success)
    assert machine.store["seen"] == A.Int(9)
    assert machine.regions.regions == {}


def test_execute_store_index_through_non_handle_is_a_type_error():
    machine = Machine()
    machine.store["x"] = A.Int(3)
    outcome = execute(machine, A.StoreIndex(A.Var("x"), A.Int(0), A.Int(1)))
    assert isinstance(outcome, Failure) and outcome.reason == TYPE_MISMATCH


def test_a_handle_is_live_dangling_or_unknown_by_its_serial():
    # live serials 0, 2, 4: 1 and 3 were freed before later allocations
    stack = RegionStack()
    handles = [stack.allocate("int", 1)]
    for length in (2, 3, 4, 5):
        handles.append(stack.allocate("int", length))
        if length % 2 == 0:
            stack.free(handles[-1])
    for serial in (0, 2, 4):
        assert stack.checked(handles[serial]) is stack.regions[serial]
    assert stack.allocated == 5
    for serial, detail in [(1, "dangling handle to region 1"), (3, "dangling handle to region 3"),
                           (-1, "unknown region -1"), (5, "unknown region 5")]:
        with pytest.raises(EngineFailure) as info:
            stack.checked(A.Handle(serial))
        assert (info.value.reason, info.value.detail) == (REGION_FAULT, detail)


@given(st.lists(st.booleans(), max_size=40), st.integers(-2, 42))
def test_handle_lookup_against_a_set_of_live_serials(steps, serial):
    # True allocates, False frees the top (when there is one)
    stack, live = RegionStack(), []
    for allocate in steps:
        if allocate:
            live.append(stack.allocate("int", 1).region_id)
        elif live:
            stack.free(A.Handle(live.pop()))
    handle = A.Handle(serial)
    if serial in live:
        assert stack.checked(handle) is stack.regions[serial]
    else:
        with pytest.raises(EngineFailure) as info:
            stack.checked(handle)
        known = 0 <= serial < steps.count(True)
        assert info.value.detail == (f"dangling handle to region {serial}" if known else f"unknown region {serial}")


def test_sequential_big_scopes_give_their_cells_back():
    source = "(Big(k) = if (k == 0) true else ((q = new int[100000] => q[99999] = k); Big(k - 1)) => Big(50))"
    tracemalloc.start()
    try:
        outcome, machine = run_source(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert isinstance(outcome, Success) and machine.regions.allocated == 50


def test_a_repl_session_holds_no_region_it_has_freed(capsys):
    machine = Machine()
    for k in range(1000):
        _repl_entry(machine, f"(p = new int[100] => p[99] = {k})")
    assert capsys.readouterr().out == "ok\n" * 1000
    assert machine.regions.regions == {} and machine.regions.allocated == 1000
