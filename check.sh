#!/bin/sh
# check.sh — the full pre-commit gate. Every step is a Makefile target;
# `make check` lists them in order.
# Usage: ./check.sh  (or: make check)
exec make check
