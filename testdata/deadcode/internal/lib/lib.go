// Package lib is the dead-name check's fixture: one dead func among
// names that are used in every way the check must see.
package lib

// Used is called from cmd/app.
func Used() int { return kernel() }

// Dead is called by nothing but its test.
func Dead() int { return 2 }

// DarwinOnly is called only from a darwin-tagged file of cmd/app.
func DarwinOnly() int { return 3 }

// Policy is implemented by Custom, with Init promoted from Base.
type Policy interface {
	Init()
	Name() string
}

// Base holds Policy's default methods.
type Base struct{}

// Init is a default that Custom does not override.
func (Base) Init() {}

// Custom is a Policy built on Base.
type Custom struct{ Base }

// Name is reached only through the Policy interface.
func (Custom) Name() string { return "custom" }
