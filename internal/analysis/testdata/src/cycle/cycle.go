// Package cycle seeds a cyclic lock-order declaration: cyc.a after cyc.b
// and cyc.b after cyc.a cannot both hold in a partial order.
package cycle

import "sync"

type a struct {
	//sqlcm:lock cyc.a after cyc.b
	mu sync.Mutex
}

type b struct {
	//sqlcm:lock cyc.b after cyc.a
	mu sync.Mutex
}
