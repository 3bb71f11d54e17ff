# Generated Pregel master for 'pagerank'.

def MASTER_STEP(ctx, M, pc):
    for _ in range(10000000):
        if pc == 0:
            M['diff'] = 0.0
            M['cnt'] = 0
            M['N'] = float(NUM_NODES)
            ctx.put_broadcast('_state', 0)
            for _name, _value in M.items():
                ctx.put_broadcast(_name, _value)
            return 4
        elif pc == 4:
            # body_2:
            M['_is_first_1'] = True
            M['diff'] = 0.0
            pc = 7
        elif pc == 7:
            # ilm_head_il1:
            ctx.put_broadcast('_state', 4)
            for _name, _value in M.items():
                ctx.put_broadcast(_name, _value)
            return 9
        elif pc == 9:
            pc = 10 if M['_is_first_1'] else 13
        elif pc == 10:
            # ilm_first_il1:
            M['_is_first_1'] = False
            pc = 20  # ilm_mid_il1
        elif pc == 13:
            # ilm_rest_il1:
            if ctx.globals.has_aggregated('diff'):
                M['diff'] = combine(OP_SUM, M['diff'], ctx.get_agg('diff'))
            M['cnt'] = (M['cnt'] + 1)
            pc = 17 if ((M['diff'] > M['e']) and (M['cnt'] < M['max_iter'])) else 22
        elif pc == 17:
            # ilm_cont_il1:
            M['diff'] = 0.0
            pc = 20  # ilm_mid_il1
        elif pc == 20:
            # ilm_mid_il1:
            pc = 7  # ilm_head_il1
        elif pc == 22:
            # endwhile_3:
            ctx.halt()
            return None
    raise RuntimeError("master did not yield a vertex phase (infinite loop?)")
