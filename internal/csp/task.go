package csp

import "fmt"

// Kind is a task's execution property. Per §3.2 of the paper, the basic
// unit of NASPipe's runtime is a task: one subnet stage's forward or
// backward pass for one input batch. Forward passes READ the stage's
// layer parameters; backward passes WRITE them (gradient + optimizer
// step), which is what creates causal dependencies between subnets.
type Kind int

// Task kinds.
const (
	Forward Kind = iota
	Backward
)

func (k Kind) String() string {
	if k == Forward {
		return "F"
	}
	return "B"
}

// Task identifies one unit of pipeline work.
type Task struct {
	Subnet int  // subnet sequence ID in exploration order
	Stage  int  // pipeline stage (GPU) index
	Kind   Kind // forward or backward
}

// String renders like the paper's Table 4 notation: "5F@2" is subnet 5's
// forward on stage 2.
func (t Task) String() string {
	return fmt.Sprintf("%d%v@%d", t.Subnet, t.Kind, t.Stage)
}
