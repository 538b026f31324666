package lmbalance_test

import (
	"fmt"

	"lmbalance"
)

// ExampleNewSystem drives the packet-level balancer directly: one
// processor produces, the factor-f trigger spreads the load.
func ExampleNewSystem() {
	sys, err := lmbalance.NewSystem(8, lmbalance.DefaultParams(), 42)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 800; i++ {
		sys.Generate(0)
	}
	// Theorem 2: the generator exceeds any other processor by at most
	// δ/(δ+1−f) in expectation (×f between balancing operations).
	fmt.Println("total:", sys.TotalLoad())
	fmt.Println("bound:", sys.Load(0) < 3*sys.Load(4))
	// Output:
	// total: 800
	// bound: true
}

// ExampleFIX evaluates the paper's closed forms.
func ExampleFIX() {
	fix := lmbalance.FIX(64, 1, 1.1)
	limit := lmbalance.FixLimit(1, 1.1)
	fmt.Printf("FIX(64,1,1.1) = %.4f <= %.4f\n", fix, limit)
	// Output:
	// FIX(64,1,1.1) = 1.1069 <= 1.1111
}

// ExampleRunNetwork runs the share-nothing message-passing realization.
func ExampleRunNetwork() {
	res, err := lmbalance.RunNetwork(lmbalance.NetworkConfig{
		N: 8, Delta: 1, F: 1.2, Steps: 500,
		GenP: []float64{0.6}, ConP: []float64{0.2}, Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	gen, con := int64(0), int64(0)
	for _, n := range res.Nodes {
		gen += n.Generated
		con += n.Consumed
	}
	fmt.Println("conserved:", int64(res.TotalLoad()) == gen-con)
	// Output:
	// conserved: true
}
