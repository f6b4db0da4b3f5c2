module dpsadopt/bench

go 1.22

require dpsadopt v0.0.0

replace dpsadopt => ../
