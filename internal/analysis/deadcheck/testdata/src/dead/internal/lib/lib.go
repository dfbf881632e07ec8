// Package lib is an internal package: a declaration is reported unless a
// root reaches it.
package lib

import "errors"

// Used is called from dead/app.
func Used() int { return helper() }

// helper is reached through Used, and Limit through helper.
func helper() int { return Limit }

const Limit = 3

func Unused() {} // want `func Unused is reached from no non-test code outside internal/`

// TestOnly is called from lib_test.go alone, which is never loaded.
func TestOnly() {} // want `func TestOnly is reached from no`

// ping and pong call each other and nothing else calls either.
func ping(n int) int { // want `func ping is reached from no`
	if n == 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int { return ping(n) } // want `func pong is reached from no`

// Shape is reached from dead/app, which calls none of its methods. The
// ones an interface of the program declares are kept.
type Shape struct{ name string }

func (s Shape) String() string { return s.name } // fmt.Stringer

func (s Shape) Error() string { return s.name } // error

func (s Shape) Area() float64 { return 0 } // Sizer

func (s Shape) Perimeter() float64 { return 0 } // want `method Shape.Perimeter is reached from no`

// Sizer is a package interface.
type Sizer interface{ Area() float64 }

// registered and ErrGone are kept: their initializers call a function.
var registered = register("lib")

func register(name string) string { return name }

var ErrGone = errors.New("gone")

var table = map[string]int{} // want `var table is reached from no`

// Fake stands in for something in a test: the directive keeps it, and
// what it uses.
//
//lint:dtlint-allow deadcheck TestSomething: fake
type Fake struct{ size float64 }

func (f Fake) Area() float64 { return fakeSize(f) }

func fakeSize(f Fake) float64 { return f.size }

// SupportOnly is called from the allowlisted package alone.
func SupportOnly() {}
