//go:build !linux

package main

import (
	"errors"
	"syscall"
)

func childAttr() *syscall.SysProcAttr { return nil }

func lowestPriority() error { return errors.New("keep-awake needs Linux thread priorities") }
