package dap

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/ares-storage/ares/internal/cfg"
	"github.com/ares-storage/ares/internal/tag"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// memDAP is an in-memory DAP satisfying C1/C2/C3, used to validate the A1/A2
// templates independent of any network protocol.
type memDAP struct {
	mu   sync.Mutex
	pair tag.Pair
}

var _ Client = (*memDAP)(nil)

func (m *memDAP) GetTag(context.Context) (tag.Tag, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pair.Tag, nil
}

func (m *memDAP) GetData(context.Context) (tag.Pair, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pair, nil
}

// GetDataConfirmed always confirms: the one in-memory copy is the whole
// quorum.
func (m *memDAP) GetDataConfirmed(ctx context.Context) (tag.Pair, bool, error) {
	p, err := m.GetData(ctx)
	return p, err == nil, err
}

func (m *memDAP) PutData(_ context.Context, p tag.Pair) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pair.Tag.Less(p.Tag) {
		m.pair = p
	}
	return nil
}

func TestWriteA1GeneratesIncreasingTags(t *testing.T) {
	t.Parallel()
	d := &memDAP{}
	ctx := context.Background()
	prev := tag.Zero
	for i := 0; i < 5; i++ {
		got, err := WriteA1(ctx, d, "w1", types.Value("v"))
		if err != nil {
			t.Fatal(err)
		}
		if !prev.Less(got) {
			t.Fatalf("tag %v not greater than previous %v", got, prev)
		}
		prev = got
	}
}

func TestReadA1ReturnsLastWrite(t *testing.T) {
	t.Parallel()
	d := &memDAP{}
	ctx := context.Background()
	wTag, err := WriteA1(ctx, d, "w1", types.Value("payload"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := ReadA1(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Tag != wTag || string(pair.Value) != "payload" {
		t.Fatalf("read (%v, %q)", pair.Tag, pair.Value)
	}
}

func TestReadA2SkipsPropagation(t *testing.T) {
	t.Parallel()
	d := &memDAP{}
	ctx := context.Background()
	if _, err := WriteA1(ctx, d, "w1", types.Value("x")); err != nil {
		t.Fatal(err)
	}
	pair, err := ReadA2(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if string(pair.Value) != "x" {
		t.Fatalf("read %q", pair.Value)
	}
}

// failDAP fails a chosen primitive, for template error propagation tests.
type failDAP struct {
	memDAP
	failGetTag, failGetData, failPutData bool
}

var errInjected = errors.New("injected")

func (f *failDAP) GetTag(ctx context.Context) (tag.Tag, error) {
	if f.failGetTag {
		return tag.Tag{}, errInjected
	}
	return f.memDAP.GetTag(ctx)
}

func (f *failDAP) GetData(ctx context.Context) (tag.Pair, error) {
	if f.failGetData {
		return tag.Pair{}, errInjected
	}
	return f.memDAP.GetData(ctx)
}

func (f *failDAP) GetDataConfirmed(ctx context.Context) (tag.Pair, bool, error) {
	p, err := f.GetData(ctx)
	return p, err == nil, err
}

func (f *failDAP) PutData(ctx context.Context, p tag.Pair) error {
	if f.failPutData {
		return errInjected
	}
	return f.memDAP.PutData(ctx, p)
}

func TestTemplatesPropagateErrors(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(Client) error
		d    *failDAP
	}{
		{"write get-tag", func(c Client) error { _, err := WriteA1(ctx, c, "w", nil); return err }, &failDAP{failGetTag: true}},
		{"write put-data", func(c Client) error { _, err := WriteA1(ctx, c, "w", nil); return err }, &failDAP{failPutData: true}},
		{"read get-data", func(c Client) error { _, err := ReadA1(ctx, c); return err }, &failDAP{failGetData: true}},
		{"read put-data", func(c Client) error { _, err := ReadA1(ctx, c); return err }, &failDAP{failPutData: true}},
		{"readA2 get-data", func(c Client) error { _, err := ReadA2(ctx, c); return err }, &failDAP{failGetData: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if err := tc.run(tc.d); !errors.Is(err, errInjected) {
				t.Fatalf("err = %v, want injected failure", err)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Register("mock", func(cfg.Configuration, transport.Client) (Client, error) {
		return &memDAP{}, nil
	})
	c := cfg.Configuration{ID: "c0", Algorithm: "mock"}
	client, err := r.New(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if client == nil {
		t.Fatal("nil client")
	}
	_, err = r.New(cfg.Configuration{ID: "c1", Algorithm: "unregistered"}, nil)
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("err = %v, want ErrUnknownAlgorithm", err)
	}
}

func TestRegistryReplace(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	first := &memDAP{}
	second := &memDAP{}
	r.Register("alg", func(cfg.Configuration, transport.Client) (Client, error) { return first, nil })
	r.Register("alg", func(cfg.Configuration, transport.Client) (Client, error) { return second, nil })
	got, err := r.New(cfg.Configuration{Algorithm: "alg"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != Client(second) {
		t.Fatal("Register did not replace the factory")
	}
}

// TestA1AtomicityOverMemDAP is a miniature of Theorem 32: sequential
// operations through A1 over a C1/C2-satisfying DAP never read stale values.
func TestA1AtomicityOverMemDAP(t *testing.T) {
	t.Parallel()
	d := &memDAP{}
	ctx := context.Background()
	var lastTag tag.Tag
	for i := 0; i < 10; i++ {
		wTag, err := WriteA1(ctx, d, "w1", types.Value{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		pair, err := ReadA1(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		if pair.Tag.Less(wTag) {
			t.Fatalf("read tag %v older than preceding write %v (A1 violated)", pair.Tag, wTag)
		}
		if pair.Tag.Less(lastTag) {
			t.Fatalf("read tags regressed: %v after %v", pair.Tag, lastTag)
		}
		lastTag = pair.Tag
	}
}
