// Package support is on the test's allowlist: every declaration is a root.
package support

import "dead/internal/lib"

func Helper() { lib.SupportOnly() }
