package wire

import (
	"math/rand/v2"

	"repro/internal/exchange"
	"repro/internal/relation"
)

// benchFrame builds a Data frame with n packed 3-ary tuples — the
// exact shape a triangle-query scatter ships per destination.
func benchFrame(n int) *Frame {
	rng := rand.New(rand.NewPCG(11, 13))
	b := exchange.NewBuffer(3)
	row := make(relation.Tuple, 3)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.IntN(1 << 20)
		}
		b.Append(row)
	}
	b.Seal()
	return &Frame{Type: TypeData, Data: Data{Round: 1, Dest: 0, Rel: "R", Buf: b}}
}
