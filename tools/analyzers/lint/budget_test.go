//go:build !race

package lint

import "time"

func init() { lintBudget = 30 * time.Second }
