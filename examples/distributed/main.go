// Distributed: run the share-nothing, message-passing simulation of the
// algorithm — every processor is a protocol machine owning its load,
// every balancing operation a freeze/ack/transfer exchange through a
// simulated network — and inspect the communication cost.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"lmbalance/internal/netsim"
)

func main() {
	const n = 32

	// Heterogeneous workload: the first quarter of the nodes are heavy
	// producers, the rest mostly consume.
	gen := make([]float64, n)
	con := make([]float64, n)
	for i := range gen {
		if i < n/4 {
			gen[i], con[i] = 0.9, 0.1
		} else {
			gen[i], con[i] = 0.1, 0.3
		}
	}

	for _, delta := range []int{1, 4} {
		res, err := netsim.Run(netsim.Config{
			N: n, Delta: delta, F: 1.2, Steps: 5000,
			GenP: gen, ConP: con, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !res.Conserved() {
			log.Fatalf("δ=%d: packet conservation violated", delta)
		}
		var initiated, completed, aborted int64
		for _, nd := range res.Nodes {
			initiated += nd.Initiated
			completed += nd.Completed
			aborted += nd.Aborted
		}
		fmt.Printf("δ=%d: total load %d, final spread %d\n",
			delta, res.TotalLoad(), res.Spread())
		fmt.Printf("      %d protocols (%d completed, %d aborted), %d messages (%.1f per completed op)\n",
			initiated, completed, aborted, res.Messages(),
			float64(res.Messages())/float64(completed))
		fmt.Printf("      producer load %d vs consumer load %d\n\n",
			res.Nodes[0].FinalLoad, res.Nodes[n-1].FinalLoad)
	}
	fmt.Println("every packet accounted for; no shared memory was used.")
}
