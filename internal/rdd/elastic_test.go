package rdd

// Elastic-membership tests: executors joining, leaving, and dying
// against a live Context. Everything here must stay correct under the
// race detector — membership installs race with job submission by
// design.

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparker/internal/membership"
	"sparker/internal/sched"
	"sparker/internal/transport"
)

// awaitLive waits until the installed epoch's live count reaches n.
func awaitLive(t *testing.T, ctx *Context, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ctx.NumLiveExecutors() != n {
		if time.Now().After(deadline) {
			t.Fatalf("live executors = %d, want %d (epoch %d)",
				ctx.NumLiveExecutors(), n, ctx.MembershipEpoch())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func collectAndCheck(t *testing.T, r *RDD[int64], want []int64) {
	t.Helper()
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Collect after churn: got %d elems, want %d", len(got), len(want))
	}
}

// TestElasticKillEvictReplace is the kill-and-replace cycle: a killed
// executor is evicted by the failure detector, jobs keep running on the
// survivors, and a replacement adopts the dead slot.
func TestElasticKillEvictReplace(t *testing.T) {
	ctx := testContext(t, 3, 2)
	data := ints(120)
	r := FromSlice(ctx, data, 9)
	collectAndCheck(t, r, data)

	e0 := ctx.MembershipEpoch()
	if err := ctx.KillExecutor(2); err != nil {
		t.Fatal(err)
	}
	if !ctx.AwaitReconfigured(e0, 10*time.Second) {
		t.Fatal("kill was not detected within 10s")
	}
	awaitLive(t, ctx, 2)
	if ctx.Membership().IsLive(2) {
		t.Fatal("executor 2 still live after kill")
	}
	// Slot table keeps its width; the live set shrinks.
	if ctx.NumExecutors() != 3 {
		t.Fatalf("NumExecutors = %d, want 3 slots", ctx.NumExecutors())
	}
	collectAndCheck(t, r, data)

	id, err := ctx.AddExecutor("replacement-host")
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("replacement adopted slot %d, want dead slot 2", id)
	}
	awaitLive(t, ctx, 3)
	collectAndCheck(t, r, data)

	// The replacement must actually receive work: one task per live
	// executor, scattered by executor id.
	res, err := ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		return []byte{byte(ec.ID)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[2] == nil || res[2][0] != 2 {
		t.Fatalf("replacement executor ran nothing: %v", res)
	}
}

// TestElasticLeaveThenRejoinSameAddress: a graceful leave frees the
// slot's listeners (ctrl, task, block store), so a rejoin on the same
// slot — same addresses — must come up cleanly.
func TestElasticLeaveThenRejoinSameAddress(t *testing.T) {
	ctx := testContext(t, 3, 2)
	e0 := ctx.MembershipEpoch()
	if err := ctx.RemoveExecutor(1); err != nil {
		t.Fatal(err)
	}
	if !ctx.AwaitReconfigured(e0, 10*time.Second) {
		t.Fatal("leave did not install a new epoch")
	}
	awaitLive(t, ctx, 2)

	var sawLeave bool
	for _, ev := range ctx.MembershipHistory() {
		if ev.Kind == "leave" && ev.Exec == 1 {
			sawLeave = true
		}
	}
	if !sawLeave {
		t.Fatal("no leave event recorded in membership history")
	}

	id, err := ctx.AddExecutor("node-001")
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("rejoin adopted slot %d, want 1", id)
	}
	awaitLive(t, ctx, 3)

	data := ints(60)
	collectAndCheck(t, FromSlice(ctx, data, 6), data)
}

// TestElasticOwnerMathCyclesOverSurvivors: the single placement-
// resolution path (Membership.OwnerOf) must map partitions onto live
// executors only, and equal p % N at full membership.
func TestElasticOwnerMathCyclesOverSurvivors(t *testing.T) {
	ctx := testContext(t, 4, 1)
	for p := 0; p < 8; p++ {
		if got := ctx.OwnerOf(p); got != p%4 {
			t.Fatalf("full membership: OwnerOf(%d) = %d, want %d", p, got, p%4)
		}
	}
	e0 := ctx.MembershipEpoch()
	if err := ctx.KillExecutor(1); err != nil {
		t.Fatal(err)
	}
	if !ctx.AwaitReconfigured(e0, 10*time.Second) {
		t.Fatal("kill not detected")
	}
	awaitLive(t, ctx, 3)
	live := append([]int(nil), ctx.LiveExecutors()...)
	sort.Ints(live)
	if !reflect.DeepEqual(live, []int{0, 2, 3}) {
		t.Fatalf("live = %v, want [0 2 3]", live)
	}
	r := FromSlice(ctx, ints(30), 6)
	for p := 0; p < 6; p++ {
		owner := ctx.OwnerOf(p)
		if owner == 1 {
			t.Fatalf("OwnerOf(%d) routed to dead executor", p)
		}
		if got := r.PlacementOf(p); got == 1 {
			t.Fatalf("PlacementOf(%d) routed to dead executor", p)
		}
		if owner != live[p%3] {
			t.Fatalf("OwnerOf(%d) = %d, want cycle over survivors %d", p, owner, live[p%3])
		}
	}
}

// TestElasticCheckpointSurvivesOwnerDeath: a checkpointed partition
// whose owner dies must still be readable — first from the buddy
// replica (promoted by the repair hook), and in the worst case from
// lineage.
func TestElasticCheckpointSurvivesOwnerDeath(t *testing.T) {
	ctx := testContext(t, 3, 2)
	data := ints(90)
	r := FromSlice(ctx, data, 6)
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	collectAndCheck(t, r, data)

	// Partition 0's primary lives on executor 0. Kill it.
	e0 := ctx.MembershipEpoch()
	if err := ctx.KillExecutor(0); err != nil {
		t.Fatal(err)
	}
	if !ctx.AwaitReconfigured(e0, 10*time.Second) {
		t.Fatal("kill not detected")
	}
	awaitLive(t, ctx, 2)
	// Readable immediately (replica or lineage), regardless of whether
	// the repair pass has finished.
	collectAndCheck(t, r, data)

	// After a replacement joins and repair settles, still exact.
	if _, err := ctx.AddExecutor(""); err != nil {
		t.Fatal(err)
	}
	awaitLive(t, ctx, 3)
	collectAndCheck(t, r, data)
}

// TestElasticGangStageAcrossEpochForming: a gang stage admitted under
// epoch E must complete while epoch E+1 is forming (a join racing the
// stage), and the new epoch must be usable right after.
func TestElasticGangStageAcrossEpochForming(t *testing.T) {
	ctx := testContext(t, 3, 2)
	gangDone := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := ctx.RunJob(JobSpec{
			Tasks:       3,
			Gang:        true,
			MaxAttempts: 1,
			Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
				time.Sleep(100 * time.Millisecond) // stretch the stage across the join
				return []byte{1}, nil
			},
		})
		gangDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the gang launch under epoch E
	id, err := ctx.AddExecutor("late-joiner")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-gangDone; err != nil {
		t.Fatalf("gang stage admitted under old epoch failed: %v", err)
	}
	wg.Wait()
	awaitLive(t, ctx, 4)
	// The formed epoch is immediately schedulable, joiner included.
	res, err := ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		return []byte{byte(ec.ID)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[id] == nil {
		t.Fatalf("joined executor %d ran no task", id)
	}
}

// TestElasticCoalescedEvictRejoin forces the failure-detector eviction
// of a slot AND the replacement join of the same slot to land in one
// installed epoch: the reconfiguration loop coalesces registry epochs
// (cur -> newest view), so when it is busy — here, parked in an
// OnReconfigure hook — the installed diff sees the slot live on both
// sides. The slot must still be treated as remove-then-add (the
// incarnation changed): in-flight attempts on the dead incarnation
// fail over as ErrExecutorLost instead of hanging forever, the dead
// incarnation's cached task conns are severed, and the replacement
// receives work over fresh ones.
func TestElasticCoalescedEvictRejoin(t *testing.T) {
	ctx := testContext(t, 3, 2)

	// Park the reconfiguration loop in a hook until released. install()
	// publishes the view and wakes epoch waiters BEFORE hooks run, so
	// AddExecutor still returns while the loop is parked.
	release := make(chan struct{})
	ctx.OnReconfigure(func(*membership.View) { <-release })
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	// A benign epoch parks the loop: grow the table by one.
	if _, err := ctx.AddExecutor("extra"); err != nil {
		t.Fatal(err)
	}

	// Pin a long-running task to executor 1 and wait for it to be in
	// flight on that incarnation.
	started := make(chan struct{}, 1)
	taskGate := make(chan struct{})
	defer close(taskGate)
	h, err := ctx.SubmitJob(JobSpec{
		Tasks:       1,
		Placement:   []int{1},
		MaxAttempts: 1,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-taskGate
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("pinned task never started")
	}

	// With the loop parked: kill executor 1 (detector evicts, registry
	// epoch bumps, nothing installs) and join a replacement (adopts the
	// dead slot, registry bumps again). Both changes are now pending in
	// one coalesced install.
	epochBefore := ctx.MembershipEpoch()
	waitEvent := func(kind string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			for _, ev := range ctx.MembershipHistory() {
				if ev.Kind == kind && ev.Exec == 1 && ev.Epoch > epochBefore {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %s event for slot 1 while loop parked", kind)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := ctx.KillExecutor(1); err != nil {
		t.Fatal(err)
	}
	// The eviction must be committed before the replacement joins, or
	// the join would grow the table instead of adopting slot 1.
	waitEvent("evict")
	addErr := make(chan error, 1)
	go func() {
		id, err := ctx.AddExecutor("replacement-host")
		if err == nil && id != 1 {
			err = errors.New("replacement did not adopt slot 1")
		}
		addErr <- err
	}()
	waitEvent("join")
	if ctx.MembershipEpoch() != epochBefore {
		t.Fatalf("epoch installed while the loop was parked: %d -> %d",
			epochBefore, ctx.MembershipEpoch())
	}
	close(release)

	// The coalesced epoch installs: slot 1 is live before AND after, but
	// the incarnation changed. The pinned attempt on the dead
	// incarnation must fail over promptly — the pre-fix behavior was a
	// silent hang (no RemoveExecutor, result conn severed, job stuck).
	waitDone := make(chan error, 1)
	go func() { _, err := h.Wait(); waitDone <- err }()
	select {
	case err := <-waitDone:
		if err == nil {
			t.Fatal("pinned job on the killed incarnation succeeded")
		}
		if !errors.Is(err, sched.ErrExecutorLost) {
			t.Fatalf("pinned job failed with %v, want ErrExecutorLost", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pinned job on the killed incarnation hung: dead incarnation was not torn down")
	}
	if err := <-addErr; err != nil {
		t.Fatal(err)
	}
	awaitLive(t, ctx, 4)
	// The installed view publishes before postReconfigure's scheduler
	// diff; wait for the remove-then-add to land so placement on slot 1
	// validates.
	deadline := time.Now().Add(10 * time.Second)
	for len(ctx.sched.LiveExecutors()) != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler live set = %v, want 4 slots (slot 1 re-added)", ctx.sched.LiveExecutors())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The replacement must be schedulable over fresh task conns (the
	// dead incarnation's cached conns were severed and re-dialed).
	res, err := ctx.RunOnAllExecutors(func(ec *ExecContext, task, attempt int) ([]byte, error) {
		return []byte{byte(ec.ID)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 || res[1] == nil || res[1][0] != 1 {
		t.Fatalf("replacement on slot 1 ran nothing: %v", res)
	}
}

// TestElasticMembershipViewAndGauges: the introspection surface tracks
// churn — epoch, live set, history, and the live-executor gauge.
func TestElasticMembershipViewAndGauges(t *testing.T) {
	ctx := testContext(t, 2, 1)
	v := ctx.membershipView()
	if v.Epoch != 1 || v.NumLive != 2 || v.NumSlots != 2 {
		t.Fatalf("boot view: %+v", v)
	}
	e0 := ctx.MembershipEpoch()
	id, err := ctx.AddExecutor("grown")
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("growth join got slot %d, want 2", id)
	}
	if !ctx.AwaitReconfigured(e0, 10*time.Second) {
		t.Fatal("join did not install")
	}
	awaitLive(t, ctx, 3)
	v = ctx.membershipView()
	if v.NumLive != 3 || v.NumSlots != 3 || v.Epoch <= e0 {
		t.Fatalf("post-join view: %+v", v)
	}
	if len(v.History) == 0 || v.History[len(v.History)-1].Kind != "join" {
		t.Fatalf("history missing join: %+v", v.History)
	}
	// The marker lands after the view installs (postReconfigure runs on
	// the reconfiguration goroutine), so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for ctx.Metrics().Count("executor-join") < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("executor-join marker not recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestElasticCleanupOverEvictedExecutor pins the whole-stage retry of a
// reduced-result stage against a dying executor: its task channel goes
// first, so the stage fails, and the stage cleanup is planned while
// the installed view still lists it (its ctrl conn, and with it the
// eviction, outlives the task channel). Only once the cleanup job has
// dialed it is the executor killed outright. Its state died with it,
// so the cleanup must be rerun over the view that evicts it and the
// stage must then succeed on the survivors, not fail with "stage
// cleanup failed".
func TestElasticCleanupOverEvictedExecutor(t *testing.T) {
	const dying = 2
	name := "t-" + t.Name()
	// The stage's single attempt dials the dying executor's task
	// channel once; the second dial comes from the cleanup job, whose
	// placement was taken from a view that still lists the executor.
	dyingAddr := taskAddr(name, dying)
	var dials atomic.Int32
	cleanupDialed := make(chan struct{})
	var once sync.Once
	net := &dialHookNetwork{Network: transport.NewMem(), hook: func(a transport.Addr) {
		if a == dyingAddr && dials.Add(1) == 2 {
			once.Do(func() { close(cleanupDialed) })
		}
	}}
	t.Cleanup(func() { net.Close() })
	ctx, err := NewContext(Config{Name: name, NumExecutors: 3, CoresPerExecutor: 1, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctx.Close() })
	e0 := ctx.MembershipEpoch()
	// Sever only the task channel: launches to the executor fail as a
	// down peer while its heartbeats keep it in the installed view.
	ctx.executorAt(dying).lis.Close()
	ctx.closeExecutorConns(dying)

	var mu sync.Mutex
	cleaned := map[int]int{}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		<-cleanupDialed
		if err := ctx.KillExecutor(dying); err != nil {
			t.Errorf("kill: %v", err)
		}
	}()
	out, err := ctx.RunJob(JobSpec{
		Tasks: 3,
		Fn: func(ec *ExecContext, task, attempt int) ([]byte, error) {
			return []byte{byte(ec.ID), byte(attempt)}, nil
		},
		StageCleanup: func(ec *ExecContext) error {
			mu.Lock()
			cleaned[ec.ID]++
			mu.Unlock()
			return nil
		},
	})
	once.Do(func() { close(cleanupDialed) })
	<-killed
	if err != nil {
		t.Fatal(err)
	}
	if ctx.MembershipEpoch() == e0 || ctx.Membership().IsLive(dying) {
		t.Fatal("executor was not evicted")
	}
	for task, p := range out {
		if p[0] == dying || p[1] == 0 {
			t.Fatalf("task %d ran on executor %d at attempt %d, want a survivor after the retry", task, p[0], p[1])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if cleaned[dying] != 0 {
		t.Fatalf("cleanup ran on the dying executor: %v", cleaned)
	}
	for _, id := range []int{0, 1} {
		if cleaned[id] == 0 {
			t.Fatalf("survivor %d was never cleaned: %v", id, cleaned)
		}
	}
}

// dialHookNetwork calls hook after every Dial, whatever its outcome.
type dialHookNetwork struct {
	transport.Network
	hook func(transport.Addr)
}

func (n *dialHookNetwork) Dial(a transport.Addr) (transport.Conn, error) {
	c, err := n.Network.Dial(a)
	n.hook(a)
	return c, err
}
