# Concrete-CPU tour for the golden CLI matrix (`hardsnap exec`).
# Timer interrupts, MMIO reads, CSR reads, console output, byte and
# halfword memory, shifts, compares and M-extension arithmetic are all
# folded into the exit code, so a change to any of them, or to when the
# timer fires relative to the instruction stream, shows in the output.
_start:
  j main
  .org 0x40
isr:
  li s10, 0x40000000
  sw zero, 0xc(s10)        # acknowledge: clear expired
  addi s9, s9, 1
  csrr t6, mcause
  add s0, s0, t6
  csrr t6, mepc
  xor s0, s0, t6
  mret
main:
  la t0, isr
  csrw mtvec, t0
  li t1, 0x40000000
  li t2, 150
  sw t2, 4(t1)             # LOAD = 150
  li t2, 7
  sw t2, 0(t1)             # enable | irq_en | auto-reload
  li t3, 8
  csrw mstatus, t3         # MIE
  li s0, 0x1234
  li s1, 0x10000100        # scratch RAM
  li s2, -7
wait:
  lw t4, 0x10(t1)          # timer count
  add s0, s0, t4
  sb s0, 0(s1)
  sh s2, 2(s1)
  lb t5, 0(s1)
  lhu t6, 2(s1)
  lh a1, 2(s1)
  lbu a2, 3(s1)
  add s0, s0, t5
  xor s0, s0, t6
  sub s0, s0, a1
  add s0, s0, a2
  mulh a3, s0, s2
  mulhsu a4, s2, s0
  mulhu a5, s0, s2
  add s0, s0, a3
  xor s0, s0, a4
  add s0, s0, a5
  div a3, s0, s2
  rem a4, s0, s2
  divu a5, s0, s2
  remu a6, s0, s2
  add s0, s0, a3
  xor s0, s0, a4
  add s0, s0, a5
  xor s0, s0, a6
  div a3, s0, zero
  rem a4, s0, zero
  add s0, s0, a3
  xor s0, s0, a4
  slt a3, s2, s0
  sltu a4, s2, s0
  slti a5, s0, -1
  sltiu a6, s0, 100
  add s0, s0, a3
  add s0, s0, a4
  add s0, s0, a5
  add s0, s0, a6
  sra a3, s2, s9
  srai a4, s0, 7
  sll a5, s0, s9
  srl a6, s0, s9
  xor s0, s0, a3
  add s0, s0, a4
  xor s0, s0, a5
  add s0, s0, a6
  li t4, 6
  blt s9, t4, wait
  csrw mstatus, zero       # mask before printing
  li t0, 0x50000000
  li t2, 111               # 'o'
  sw t2, 0(t0)
  li t2, 107               # 'k'
  sw t2, 0(t0)
  mv a0, s0
finish:
  li t0, 0x50000004
  sw a0, 0(t0)
