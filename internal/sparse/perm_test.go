package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityPerm(t *testing.T) {
	p := Identity(5)
	for i, v := range p {
		if v != i {
			t.Fatalf("Identity(5)[%d] = %d", i, v)
		}
	}
	if err := CheckPerm(p, 5); err != nil {
		t.Fatal(err)
	}
}

func TestPermInverse(t *testing.T) {
	p := Perm{2, 0, 3, 1}
	q := p.Inverse()
	want := Perm{1, 3, 0, 2}
	for i := range q {
		if q[i] != want[i] {
			t.Fatalf("Inverse = %v, want %v", q, want)
		}
	}
}

func TestPermInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		p := RandomPerm(n, rng)
		q := p.Inverse()
		r := p.Compose(q)
		for i, v := range r {
			if v != i {
				t.Fatalf("p∘p⁻¹ not identity at %d: %v", i, r)
			}
		}
	}
}

func TestPermIsValidRejectsBad(t *testing.T) {
	cases := []Perm{
		{0, 0},
		{1, 2},
		{-1, 0},
		{0, 2, 1, 3, 3},
	}
	for _, p := range cases {
		if err := CheckPerm(p, len(p)); err == nil {
			t.Errorf("CheckPerm(%v) = nil, want error", p)
		}
	}
}

func TestCheckPermLength(t *testing.T) {
	if err := CheckPerm(Perm{0, 1}, 3); err == nil {
		t.Fatal("CheckPerm accepted wrong length")
	}
}

func TestPermComposeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(30)
		p := RandomPerm(n, rng)
		q := RandomPerm(n, rng)
		r := RandomPerm(n, rng)
		lhs := p.Compose(q).Compose(r)
		rhs := p.Compose(q.Compose(r))
		for i := range lhs {
			if lhs[i] != rhs[i] {
				t.Fatalf("compose not associative at %d", i)
			}
		}
	}
}

func TestPermCloneIndependent(t *testing.T) {
	p := Perm{1, 0}
	q := p.Clone()
	q[0] = 0
	if p[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

// Property: random permutations are always valid and invert correctly.
func TestQuickPermInverse(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		rng := rand.New(rand.NewSource(seed))
		p := RandomPerm(n, rng)
		if CheckPerm(p, n) != nil {
			return false
		}
		q := p.Inverse()
		for i := range p {
			if q[p[i]] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
