module sqlpp/benchmark

go 1.22

require sqlpp v0.0.0

replace sqlpp => ../
