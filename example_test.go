package muzha_test

import (
	"fmt"
	"time"

	"muzha"
)

// ExampleRun reproduces the paper's basic scenario: one TCP Muzha flow
// over the 4-hop chain of Figure 5.1.
func ExampleRun() {
	topology, err := muzha.ChainTopology(4)
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := muzha.DefaultConfig() // Table 5.1 parameters
	cfg.Topology = topology
	cfg.Duration = 10 * time.Second
	cfg.Window = 8
	cfg.Flows = []muzha.Flow{{Src: 0, Dst: 4, Variant: muzha.Muzha}}

	res, err := muzha.Run(cfg) // deterministic in cfg.Seed
	if err != nil {
		fmt.Println(err)
		return
	}
	f := res.Flows[0]
	fmt.Printf("delivered %d bytes with %d retransmissions\n",
		f.BytesAcked, f.Retransmissions)
	// Output:
	// delivered 410260 bytes with 1 retransmissions
}

// ExampleCoexistenceFairness reproduces one row of Simulation 3A: two
// crossing flows sharing the centre of a cross topology.
func ExampleCoexistenceFairness() {
	exp, err := muzha.CoexistenceFairness(
		[]int{4},
		[][2]muzha.Variant{{muzha.NewReno, muzha.Muzha}},
		10*time.Second,
		[]int64{1},
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	outs, err := muzha.RunExperiments([]*muzha.Experiment{exp}, muzha.SweepOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	r := outs[0].Rows.([]muzha.FairnessRow)[0]
	fmt.Printf("%s+%s on the %d-hop cross: Jain index in (0,1]: %v\n",
		r.Variants[0], r.Variants[1], r.Hops, r.JainIndex > 0 && r.JainIndex <= 1)
	// Output:
	// newreno+muzha on the 4-hop cross: Jain index in (0,1]: true
}

// ExampleChainTopology shows the Figure 5.1 layout helper.
func ExampleChainTopology() {
	topology, _ := muzha.ChainTopology(4)
	fmt.Println(topology.Name(), topology.Nodes(), "nodes, flow", topology.FlowEndpoints()[0])
	// Output:
	// chain-4hop 5 nodes, flow [0 4]
}
