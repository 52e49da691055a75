package treas

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/erasure"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// aboveFloor is what a server sends for one List under a floor: the
// entries with tags at or above it.
func aboveFloor(l listResp, floor tag.Tag) listResp {
	out := listResp{Index: l.Index}
	for _, e := range l.Entries {
		if floor.LessEq(e.Tag) {
			out.Entries = append(out.Entries, e)
		}
	}
	return out
}

// randomLists builds n server Lists over the tags t0 < t1 < … < t_m: each
// server holds t0 and a random subset of the rest, each with or without its
// coded element. Elements encode the tag, so a decision that picked the
// wrong element would not compare equal.
func randomLists(rng *rand.Rand, n, m int) ([]listResp, []tag.Tag) {
	tags := make([]tag.Tag, m+1)
	for i := 1; i <= m; i++ {
		tags[i] = tag.Tag{Z: int64(i), W: types.ProcessID("w" + string(rune('a'+rng.Intn(3))))}
	}
	lists := make([]listResp, n)
	for s := range lists {
		lists[s].Index = s
		for i, t := range tags {
			if i > 0 && rng.Intn(3) == 0 {
				continue
			}
			lists[s].Entries = append(lists[s].Entries, randomEntry(rng, t, s))
		}
	}
	return lists, tags
}

func randomEntry(rng *rand.Rand, t tag.Tag, server int) listEntry {
	e := listEntry{Tag: t, ValueLen: int(t.Z)}
	if e.HasElem = rng.Intn(3) > 0; e.HasElem {
		e.Elem = []byte{byte(t.Z), byte(server)}
	}
	return e
}

// hold adds t to the lists of servers that lack it.
func hold(rng *rand.Rand, lists []listResp, servers []int, t tag.Tag) {
	for _, s := range servers {
		found := false
		for _, e := range lists[s].Entries {
			found = found || e.Tag == t
		}
		if !found {
			lists[s].Entries = append(lists[s].Entries, randomEntry(rng, t, s))
		}
	}
}

// TestDecideFloorProperty is the safety evidence for the read floor, over
// randomized List sets at every [n, k] with n ≤ 9. A floor held by a full
// quorum of the n Lists leaves the decision over any gathered quorum
// exactly as it is over whole Lists (the same tag, elements and
// confirmation, or the same ErrNotDecodable). Any other floor either
// leaves it unchanged or turns it into ErrNotDecodable: filtering never
// makes a read return something an unfiltered read would not.
func TestDecideFloorProperty(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	var held, heldDecided, other, otherBlocked int
	for iter := 0; iter < 4000; iter++ {
		n := 3 + rng.Intn(7)
		k := 1 + rng.Intn(n)
		q := (n + k + 1) / 2
		lists, tags := randomLists(rng, n, 1+rng.Intn(6))

		// The floor: either a tag forced into a random full quorum of the
		// n Lists, or any tag at all, written or not.
		servers := rng.Perm(n)
		quorumHeld := rng.Intn(2) == 0
		var floor tag.Tag
		if quorumHeld {
			floor = tags[rng.Intn(len(tags))]
			hold(rng, lists, servers[:q+rng.Intn(n-q+1)], floor)
		} else {
			floor = tag.Tag{Z: int64(rng.Intn(len(tags) + 1)), W: "wb"}
		}

		// A reader gathers some quorum of the Lists, in reply order.
		rng.Shuffle(len(servers), func(i, j int) { servers[i], servers[j] = servers[j], servers[i] })
		gathered := make([]listResp, 0, n)
		filtered := make([]listResp, 0, n)
		for _, s := range servers[:q+rng.Intn(n-q+1)] {
			gathered = append(gathered, lists[s])
			filtered = append(filtered, aboveFloor(lists[s], floor))
		}
		want, wantErr := decide(gathered, k, q)
		got, gotErr := decide(filtered, k, q)
		if wantErr != nil && !errors.Is(wantErr, ErrNotDecodable) || gotErr != nil && !errors.Is(gotErr, ErrNotDecodable) {
			t.Fatalf("iter %d: errors %v / %v, want ErrNotDecodable or nil", iter, wantErr, gotErr)
		}
		same := (wantErr == nil) == (gotErr == nil) && reflect.DeepEqual(want, got)
		if quorumHeld {
			held++
			if wantErr == nil {
				heldDecided++
			}
			if !same {
				t.Fatalf("iter %d [%d,%d]: floor %v held by a quorum changed the decision: unfiltered %+v (%v), filtered %+v (%v)",
					iter, n, k, floor, want, wantErr, got, gotErr)
			}
			continue
		}
		other++
		if same {
			continue
		}
		if gotErr == nil {
			t.Fatalf("iter %d [%d,%d]: floor %v produced a decision the unfiltered read does not: unfiltered %+v (%v), filtered %+v",
				iter, n, k, floor, want, wantErr, got)
		}
		otherBlocked++
	}
	// The generator must exercise every class, or the property is vacuous.
	t.Logf("quorum-held floors: %d (%d decided); other floors: %d (%d blocked by the filter)", held, heldDecided, other, otherBlocked)
	if heldDecided == 0 || heldDecided == held || otherBlocked == 0 || otherBlocked == other {
		t.Fatalf("degenerate sample: %d/%d held floors decided, %d/%d other floors blocked", heldDecided, held, otherBlocked, other)
	}
}

// writeOnly sends tag t's coded elements to the listed servers only,
// bypassing the client (a write whose other put-data messages are still in
// flight).
func writeOnly(t *testing.T, net *transport.Simnet, c cfg.Configuration, p tag.Pair, servers ...int) {
	t.Helper()
	code, err := erasure.New(c.N(), c.K)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := code.Encode(p.Value)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range servers {
		req := putDataReq{Tag: p.Tag, Elem: shards[i], ValueLen: len(p.Value)}
		if _, err := transport.InvokeTyped[struct{}](context.Background(), net.Client("partial-writer"), c.Servers[i],
			transport.Addr{Service: ServiceName, Key: c.Key, Config: string(c.ID), Type: msgPutData}, req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFloorSources pins where a client's floor comes from: a put-data that
// reached its quorum and a confirmed get-data raise it; a get-tag and an
// unconfirmed get-data do not.
func TestFloorSources(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 2, net)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewClient(c, net.Client("r1"))
	if err != nil {
		t.Fatal(err)
	}

	t1 := tag.Tag{Z: 1, W: "w1"}
	if err := w.PutData(ctx, tag.Pair{Tag: t1, Value: types.Value("one")}); err != nil {
		t.Fatal(err)
	}
	if got := w.Floor(); got != t1 {
		t.Fatalf("after put-data of %v the writer's floor is %v", t1, got)
	}
	net.Quiesce()

	if got, err := r.GetTag(ctx); err != nil || got != t1 {
		t.Fatalf("get-tag = %v, %v; want %v", got, err, t1)
	}
	if got := r.Floor(); got != tag.Zero {
		t.Fatalf("get-tag raised the floor to %v", got)
	}

	p, confirmed, err := r.GetDataConfirmed(ctx)
	if err != nil || p.Tag != t1 || !confirmed {
		t.Fatalf("quiescent read = %v confirmed=%v, %v; want %v confirmed", p.Tag, confirmed, err, t1)
	}
	if got := r.Floor(); got != t1 {
		t.Fatalf("a confirmed read of %v left the floor at %v", t1, got)
	}

	// t2 reaches exactly k = 3 servers; with a non-holder crashed, every
	// reader quorum of 4 is those 3 plus one server without t2, so the read
	// returns t2 unconfirmed.
	t2 := tag.Tag{Z: 2, W: "w2"}
	writeOnly(t, net, c, tag.Pair{Tag: t2, Value: types.Value("two")}, 0, 1, 2)
	net.Crash(c.Servers[4])
	p, confirmed, err = r.GetDataConfirmed(ctx)
	if err != nil || p.Tag != t2 || confirmed {
		t.Fatalf("partial-write read = %v confirmed=%v, %v; want %v unconfirmed", p.Tag, confirmed, err, t2)
	}
	if got := r.Floor(); got != t1 {
		t.Fatalf("an unconfirmed read of %v moved the floor from %v to %v", t2, t1, got)
	}
}

// listTap records the query-list replies a client receives.
type listTap struct {
	transport.Client
	mu      sync.Mutex
	replies []listResp
}

func (l *listTap) Invoke(ctx context.Context, dst types.ProcessID, req transport.Request) (transport.Response, error) {
	resp, err := l.Client.Invoke(ctx, dst, req)
	if err == nil && resp.OK && req.Type == msgQueryList {
		var r listResp
		if uerr := transport.Unmarshal(resp.Payload, &r); uerr == nil {
			l.mu.Lock()
			l.replies = append(l.replies, r)
			l.mu.Unlock()
		}
	}
	return resp, err
}

func (l *listTap) take() []listResp {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.replies
	l.replies = nil
	return out
}

// TestWarmReadFetchesOneElementPerServer: a client's second read with no
// write in between decodes in one get-data round, and every server answers
// with exactly one entry, the element of the tag the first read confirmed.
// A server filter that dropped the floor tag itself (> instead of ≥) would
// leave nothing to decode.
func TestWarmReadFetchesOneElementPerServer(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, _ := deploy(t, "c0", 5, 3, 4, net)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w, err := NewClient(c, net.Client("w1"))
	if err != nil {
		t.Fatal(err)
	}
	var last tag.Pair
	for i := 1; i <= 6; i++ {
		last = tag.Pair{Tag: tag.Tag{Z: int64(i), W: "w1"}, Value: types.Value{byte(i), 2, 3, 4, 5, 6, 7}}
		if err := w.PutData(ctx, last); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce()

	tap := &listTap{Client: net.Client("r1")}
	r, err := NewClient(c, tap)
	if err != nil {
		t.Fatal(err)
	}
	for read := 1; read <= 2; read++ {
		p, confirmed, err := r.GetDataConfirmed(ctx)
		if err != nil {
			t.Fatalf("read %d: %v", read, err)
		}
		if p.Tag != last.Tag || !p.Value.Equal(last.Value) || !confirmed {
			t.Fatalf("read %d = (%v, %v) confirmed=%v, want (%v, %v) confirmed", read, p.Tag, p.Value, confirmed, last.Tag, last.Value)
		}
		net.Quiesce()
		replies := tap.take()
		if q := c.Quorum().Size(); len(replies) < q {
			t.Fatalf("read %d: %d query-list replies, want at least %d", read, len(replies), q)
		}
		sort.Slice(replies, func(i, j int) bool { return replies[i].Index < replies[j].Index })
		for _, rep := range replies {
			entries := len(rep.Entries)
			switch {
			case read == 1 && entries != 7: // t0 and six writes, δ+1 = 5 with elements
				t.Errorf("cold read: server %d sent %d entries, want the whole List of 7", rep.Index, entries)
			case read == 2 && (entries != 1 || rep.Entries[0].Tag != last.Tag || !rep.Entries[0].HasElem):
				t.Errorf("warm read: server %d sent %+v, want only %v with its element", rep.Index, rep.Entries, last.Tag)
			}
		}
	}
}

// TestQueryListRequiresFloor: the server decodes the query-list body
// strictly, so a request without a floor is refused, not read as tag.Zero.
func TestQueryListRequiresFloor(t *testing.T) {
	t.Parallel()
	net := transport.NewSimnet()
	c, services := deploy(t, "c0", 5, 3, 2, net)
	svc := services[c.Servers[0]]
	if _, err := svc.HandleKeyed("r1", "", string(c.ID), msgQueryList, nil); err == nil {
		t.Fatal("query-list with an empty body was accepted")
	}
	payload := transport.MustMarshal(listReq{Floor: tag.Tag{Z: 1, W: "w1"}})
	if _, err := svc.HandleKeyed("r1", "", string(c.ID), msgQueryList, append(payload, 0)); err == nil {
		t.Fatal("query-list with trailing bytes was accepted")
	}
	resp, err := svc.HandleKeyed("r1", "", string(c.ID), msgQueryList, payload)
	if err != nil {
		t.Fatal(err)
	}
	if l := resp.(listResp); len(l.Entries) != 0 {
		t.Fatalf("floor above every tag returned %+v", l.Entries)
	}
}
