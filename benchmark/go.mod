module vrcg/benchmark

go 1.24

require vrcg v0.0.0

replace vrcg => ../
