module lmbalance/bench

go 1.22

require lmbalance v0.0.0

replace lmbalance => ../
