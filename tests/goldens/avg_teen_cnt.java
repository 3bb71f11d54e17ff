// Generated by the Green-Marl Pregel backend from 'avg_teen_cnt.gm'.
// Target framework: GPS (master.compute() extension of Pregel).
import java.io.DataInput;
import java.io.DataOutput;
import java.io.IOException;
import java.util.Random;

public class AvgTeenCnt {
    static final double INF = Double.POSITIVE_INFINITY;
    static final int NIL = -1;
    
    public static class Message implements Writable {
        static Message tag0() {
            Message m = new Message();
            return m;
        }
        public void write(DataOutput out) throws IOException {
        }
        public void readFields(DataInput in) throws IOException {
        }
    }
    
    public static class VertexValue implements Writable {
        int age;
        int teen_cnt;
        int _gm_p_gm_r00;
        public void write(DataOutput out) throws IOException {
            out.writeInt(age);
            out.writeInt(teen_cnt);
            out.writeInt(_gm_p_gm_r00);
        }
        public void readFields(DataInput in) throws IOException {
            age = in.readInt();
            teen_cnt = in.readInt();
            _gm_p_gm_r00 = in.readInt();
        }
    }
    
    public static class AvgTeenCntVertex extends Vertex<VertexValue, Message> {
        public void compute(Iterable<Message> messages, int superstepNo) {
            int _state = getGlobal("_state");
            switch (_state) {
                case 0: do_state_0(messages); break;
                case 2: do_state_2(messages); break;
            }
        }
        
        private void do_state_0(Iterable<Message> messages) {  // par@4+par@4
            getValue()._gm_p_gm_r00 = 0;
            if (((getValue().age >= 13) && (getValue().age <= 19))) {
                sendToNbrs(Message.tag0());
            }
        }
        
        private void do_state_2(Iterable<Message> messages) {  // recv@4+par@4+par@7+par@7
            for (Message m : messages) {
                getValue()._gm_p_gm_r00 += 1;
            }
            getValue().teen_cnt = getValue()._gm_p_gm_r00;
            if ((getValue().age > getGlobal("K"))) {
                putGlobal("_gm_r1", new SumGlobal(getValue().teen_cnt));
            }
            if ((getValue().age > getGlobal("K"))) {
                putGlobal("_gm_r2", new SumGlobal(1));
            }
        }
    }
    
    public static class AvgTeenCntMaster extends Master {
        int K;
        int _gm_r1;
        int _gm_r2;
        float avg;
        int _pc = 0;
        Random random = new Random();
        
        public void compute(int superstepNo) {
            while (true) {
                switch (_pc) {
                    case 0:
                        putGlobal("_state", 0);
                        broadcastGlobals();  // scalar master fields
                        _pc = 1;
                        return;  // yield: run vertex phase this superstep
                    case 1:
                        _gm_r1 = 0;
                        _pc = 2; break;
                    case 2:
                        _gm_r2 = 0;
                        _pc = 3; break;
                    case 3:
                        putGlobal("_state", 2);
                        broadcastGlobals();  // scalar master fields
                        openGlobal("_gm_r1", _gm_r1);
                        openGlobal("_gm_r2", _gm_r2);
                        _pc = 4;
                        return;  // yield: run vertex phase this superstep
                    case 4:
                        if (hasGlobal("_gm_r1")) _gm_r1 = getGlobal("_gm_r1");
                        _pc = 5; break;
                    case 5:
                        if (hasGlobal("_gm_r2")) _gm_r2 = getGlobal("_gm_r2");
                        _pc = 6; break;
                    case 6:
                        avg = ((float) ((_gm_r2 == 0) ? 0.0 : (((double) _gm_r1) / ((double) _gm_r2))));
                        _pc = 7; break;
                    case 7:
                        setResult(avg);
                        haltComputation();
                        return;
                    case 8:
                        haltComputation();
                        return;
                }
            }
        }
    }
}
