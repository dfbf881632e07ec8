// Package app is outside internal/: its declarations are roots.
package app

import (
	"fmt"

	"dead/internal/lib"
)

var _ lib.Sizer = lib.Shape{}

func Main() { fmt.Println(lib.Used(), lib.Shape{}) }
