START:  LDA 0, CH
        SYS 1
        HALT
CH:     .word '!'
