# Planted defects: one of every assembler-lint finding kind.
.data
count:
    .long 0
    .long foo        # EXPECT: asm-syntax
    movl $1, %eax    # EXPECT: asm-instruction-in-data
.text
main:
    .long 5          # EXPECT: asm-data-in-text
    movl $1, %eax
    jmp done
    movl $2, %eax    # EXPECT: asm-unreachable
done:
    addl %eax        # EXPECT: asm-arity
    movl %eax, $3    # EXPECT: asm-immediate-dest
    andl (%eax), count   # EXPECT: asm-two-memory
    leal %ecx, %eax  # EXPECT: asm-address-operand
    jmp missing      # EXPECT: asm-undefined-label
done:                # EXPECT: asm-duplicate-label
    frob %eax        # EXPECT: asm-unknown-mnemonic
    movl %ecx, %ecx  # EXPECT: asm-self-move
    movl $1, -4(%ebp)    # EXPECT: asm-dead-store
    movl $2, -4(%ebp)
    ret
