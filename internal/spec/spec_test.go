package spec

import (
	"strings"
	"testing"

	"github.com/ares-storage/ares/internal/cfg"
)

func TestParseTreas(t *testing.T) {
	t.Parallel()
	c, err := Parse("id=c0;alg=treas;servers=s1,s2,s3,s4,s5;k=3;delta=4")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "c0" || c.Algorithm != cfg.TREAS || len(c.Servers) != 5 || c.K != 3 || c.Delta != 4 {
		t.Fatalf("parsed %+v", c)
	}
}

func TestParseABD(t *testing.T) {
	t.Parallel()
	c, err := Parse("id=c1;alg=abd;servers=a1,a2,a3")
	if err != nil {
		t.Fatal(err)
	}
	if c.Algorithm != cfg.ABD || len(c.Servers) != 3 {
		t.Fatalf("parsed %+v", c)
	}
}

func TestParseWhitespaceTolerant(t *testing.T) {
	t.Parallel()
	c, err := Parse(" id = c0 ; alg = abd ; servers = s1 , s2 , s3 ")
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "c0" || len(c.Servers) != 3 || c.Servers[1] != "s2" {
		t.Fatalf("parsed %+v", c)
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name, in, wantErr string
	}{
		{"not key=value", "id=c0;bogus", "not key=value"},
		{"unknown field", "id=c0;alg=abd;servers=s1;color=red", "unknown field"},
		{"bad k", "id=c0;alg=treas;servers=s1;k=three", "k:"},
		{"bad delta", "id=c0;alg=treas;servers=s1;k=1;delta=x", "delta:"},
		{"invalid config", "id=c0;alg=treas;servers=s1;k=5", "out of range"},
		{"missing id", "alg=abd;servers=s1", "empty ID"},
		{"removed algorithm", "id=c2;alg=ldr;servers=r1,r2,r3", "unknown algorithm"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := Parse(tc.in)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Parse(%q) err = %v, want containing %q", tc.in, err, tc.wantErr)
			}
		})
	}
}

func TestFormatRoundTrip(t *testing.T) {
	t.Parallel()
	inputs := []string{
		"id=c0;alg=treas;servers=s1,s2,s3,s4,s5;k=3;delta=4",
		"id=c1;alg=abd;servers=a1,a2,a3",
	}
	for _, in := range inputs {
		c1, err := Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := Parse(Format(c1))
		if err != nil {
			t.Fatalf("re-parsing %q: %v", Format(c1), err)
		}
		if c1.ID != c2.ID || c1.Algorithm != c2.Algorithm || len(c1.Servers) != len(c2.Servers) ||
			c1.K != c2.K || c1.Delta != c2.Delta {
			t.Fatalf("round trip changed config: %+v vs %+v", c1, c2)
		}
	}
}

func TestParseBook(t *testing.T) {
	t.Parallel()
	book, err := ParseBook("s1=127.0.0.1:7001, s2=127.0.0.1:7002")
	if err != nil {
		t.Fatal(err)
	}
	if book["s1"] != "127.0.0.1:7001" || book["s2"] != "127.0.0.1:7002" {
		t.Fatalf("book = %v", book)
	}
	if _, err := ParseBook(""); err == nil {
		t.Fatal("empty book accepted")
	}
	if _, err := ParseBook("s1:no-equals"); err == nil {
		t.Fatal("malformed peer accepted")
	}
}
