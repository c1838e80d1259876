module passcloud/benchmark

go 1.24

require passcloud v0.0.0

replace passcloud => ../
